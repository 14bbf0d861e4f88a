"""Levi-Civita connection data and the curvature two-form of the tangent line.

Everything here is computed from metric jets, so first derivatives of
Christoffel symbols come from second metric derivatives analytically, not
from differencing.  The chart frame e1 = du/|du|, e2 = J e1 is unitary
for the hermitian structure; metric compatibility makes the connection
form in that frame purely imaginary, omega = i * (b_u du + b_v dv) with
real b_a = FRAME_SIGN * g(nabla_a e1, e2).  The two-form coefficient

    two_form_coeff = -(d_u b_v - d_v b_u)

is the coefficient of i * curv(nabla) against du^dv and must reproduce
K * sqrt(det g) pointwise; integrating it (or K * sqrt(det g)) against
the chart quadrature and dividing by 2*pi gives the first Chern number.

Scalar entry points take a Point2; the same kernels run vectorized over
arrays for the quadrature module.  ``curvature_report_grid`` is the one
vectorized pass; it keeps every channel (K, area, two-form, b, max|alpha|)
that the Chern sums, ``connection_difference`` and the grid dump read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets
from .complex_structure import TangentVector
from .errors import DomainMismatchError, PeriodicityError
from .jets import Jet2, partial_jet
from .metric import (MetricField, MetricJet, ParamDomain, Point2, RectDomain,
                     eval_metric_grid, eval_metric_jet)
from .quadrature import QuadratureSpec, build_nodes

# Overall sign of the stored connection coefficients.  Pinned by the
# calibration test: the unit sphere must give two_form_coeff = +sin(theta)
# and Chern number +2 for the chart orientation du^dv.
FRAME_SIGN = 1.0


@dataclass(frozen=True)
class Christoffels:
    """gamma[k][i][j] = Gamma^k_{ij}, symmetric in the lower pair."""

    gamma: np.ndarray  # shape (2, 2, 2)


@dataclass(frozen=True)
class ConnectionForm:
    """Connection form in the unitary frame, omega = i*(b_u du + b_v dv).

    b_u, b_v are the real coefficients; alpha_u, alpha_v are the computed
    g(nabla_a e1, e1) compatibility residuals, zero in exact arithmetic,
    reported so hermiticity is measured rather than assumed.
    """

    b_u: float
    b_v: float
    alpha_u: float
    alpha_v: float


@dataclass(frozen=True)
class CurvatureReport:
    """Pointwise curvature data: K, sqrt(det g), the two-form coefficient,
    b_u, b_v, and alpha_max = max(|alpha_u|, |alpha_v|) over the points."""

    k: float
    area_coeff: float
    two_form_coeff: float
    b_u: float
    b_v: float
    alpha_max: float

    def identity_residual(self) -> float:
        target = self.k * self.area_coeff
        return float(np.max(np.abs(self.two_form_coeff - target) / (1.0 + np.abs(target))))


@dataclass(frozen=True)
class OneForm:
    """A 1-form sampled on a periodic rectangle grid (u-major arrays)."""

    us: np.ndarray
    vs: np.ndarray
    eta_u: np.ndarray
    eta_v: np.ndarray
    imag_max: float = 0.0


@dataclass(frozen=True)
class CurvatureSample:
    """A grid CurvatureReport on ``build_nodes(domain, spec)``: flat arrays
    in u-major order, with k_area = K * sqrt(det g)."""

    domain: ParamDomain
    spec: QuadratureSpec
    us: np.ndarray
    vs: np.ndarray
    weights: np.ndarray
    report: CurvatureReport
    k_area: np.ndarray


# ---------------------------------------------------------------------------
# jet-level kernels (scalar or array channels)


def _inverse_and_gamma(mjet: MetricJet):
    g = [[mjet.g11, mjet.g12], [mjet.g12, mjet.g22]]
    det = mjet.g11 * mjet.g22 - mjet.g12 * mjet.g12
    inv = [[mjet.g22 / det, -mjet.g12 / det], [-mjet.g12 / det, mjet.g11 / det]]
    # dg[a][i][j]: first-order jet of d_a g_ij (second channels unusable)
    axes = ("u", "v")
    dg = [[[partial_jet(g[i][j], axes[a]) for j in range(2)] for i in range(2)]
          for a in range(2)]
    gamma = [[[None, None], [None, None]], [[None, None], [None, None]]]
    for k in range(2):
        for i in range(2):
            for j in range(i, 2):
                acc = Jet2(0.0)
                for l in range(2):
                    acc = acc + inv[k][l] * (dg[i][j][l] + dg[j][i][l] - dg[l][i][j])
                gamma[k][i][j] = 0.5 * acc
        # g[0][1] and g[1][0] are one jet, so Gamma^k_10 would equal Gamma^k_01 bitwise
        gamma[k][1][0] = gamma[k][0][1]
    return g, det, inv, gamma


def _curvature_k(g, det, gamma):
    # K = g(R(du, dv)dv, du) / det with R from Gamma values and their
    # analytic first derivatives (jet channels)
    r = [None, None]
    for l in range(2):
        quad = 0.0
        for m in range(2):
            quad = (quad + gamma[l][0][m].val * gamma[m][1][1].val
                    - gamma[l][1][m].val * gamma[m][0][1].val)
        r[l] = gamma[l][1][1].du - gamma[l][0][1].dv + quad
    num = g[0][0].val * r[0] + g[0][1].val * r[1]
    return num / det.val


def _connection_coeffs(g, det, inv, gamma):
    # unitary frame e1 = du/sqrt(g11), e2 = J e1 = f*a*(inv12, inv22)
    f = 1.0 / jets.sqrt(g[0][0])
    a = jets.sqrt(det)
    e2 = (f * a * inv[0][1], f * a * inv[1][1])
    bs, alphas = [], []
    for axis in ("u", "v"):
        i = 0 if axis == "u" else 1
        w0 = partial_jet(f, axis) + f * gamma[0][i][0]
        w1 = f * gamma[1][i][0]
        b = FRAME_SIGN * (g[0][0] * w0 * e2[0]
                          + g[0][1] * (w0 * e2[1] + w1 * e2[0])
                          + g[1][1] * w1 * e2[1])
        alpha = (g[0][0].val * w0.val + g[0][1].val * w1.val) * f.val
        bs.append(b)
        alphas.append(alpha)
    return bs[0], bs[1], alphas[0], alphas[1]


def _report_channels(mjet: MetricJet):
    g, det, inv, gamma = _inverse_and_gamma(mjet)
    k = _curvature_k(g, det, gamma)
    area = np.sqrt(det.val)
    b_u, b_v, alpha_u, alpha_v = _connection_coeffs(g, det, inv, gamma)
    two_form = -(b_v.du - b_u.dv)
    alpha_max = max(float(np.max(np.abs(alpha_u))), float(np.max(np.abs(alpha_v))))
    return k, area, two_form, b_u.val, b_v.val, alpha_max


# ---------------------------------------------------------------------------
# public entry points


def christoffels(mjet: MetricJet) -> Christoffels:
    """Gamma^k_{ij} = g^{kl} (d_i g_{jl} + d_j g_{il} - d_l g_{ij}) / 2."""
    _, _, _, gamma = _inverse_and_gamma(mjet)
    out = np.empty((2, 2, 2))
    for k in range(2):
        for i in range(2):
            for j in range(2):
                out[k, i, j] = gamma[k][i][j].val
    return Christoffels(out)


def curvature_operator(field: MetricField, p: Point2, x: TangentVector,
                       y: TangentVector, z: TangentVector) -> TangentVector:
    """R(X, Y)Z with R(di, dj)dk = (d_i Gamma^l_{jk} - d_j Gamma^l_{ik}
    + Gamma^l_{im} Gamma^m_{jk} - Gamma^l_{jm} Gamma^m_{ik}) dl."""
    mjet = eval_metric_jet(field, p)
    _, _, _, gamma = _inverse_and_gamma(mjet)

    def dgamma(l, a, i, j):
        entry = gamma[l][i][j]
        return entry.du if a == 0 else entry.dv

    xs, ys, zs = x.array(), y.array(), z.array()
    out = np.zeros(2)
    for l in range(2):
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    coeff = dgamma(l, i, j, k) - dgamma(l, j, i, k)
                    for m in range(2):
                        coeff += (gamma[l][i][m].val * gamma[m][j][k].val
                                  - gamma[l][j][m].val * gamma[m][i][k].val)
                    out[l] += coeff * xs[i] * ys[j] * zs[k]
    return TangentVector(float(out[0]), float(out[1]))


def gauss_curvature(field: MetricField, p: Point2) -> float:
    """Sectional curvature of the chart plane, K = g(R(X,Y)Y, X) /
    (g(X,X) g(Y,Y) - g(X,Y)^2) with X = du, Y = dv."""
    mjet = eval_metric_jet(field, p)
    g, det, _, gamma = _inverse_and_gamma(mjet)
    return float(_curvature_k(g, det, gamma))


def gauss_curvature_brioschi(field: MetricField, p: Point2) -> float:
    """Brioschi determinant formula; an independent route to K that never
    touches Christoffel symbols."""
    mjet = eval_metric_jet(field, p)
    e, f, g = mjet.g11, mjet.g12, mjet.g22
    m1 = np.array([
        [-0.5 * e.dvv + f.duv - 0.5 * g.duu, 0.5 * e.du, f.du - 0.5 * e.dv],
        [f.dv - 0.5 * g.du, e.val, f.val],
        [0.5 * g.dv, f.val, g.val],
    ])
    m2 = np.array([
        [0.0, 0.5 * e.dv, 0.5 * g.du],
        [0.5 * e.dv, e.val, f.val],
        [0.5 * g.du, f.val, g.val],
    ])
    det_g = e.val * g.val - f.val * f.val
    return float((np.linalg.det(m1) - np.linalg.det(m2)) / (det_g * det_g))


def connection_form(field: MetricField, p: Point2) -> ConnectionForm:
    mjet = eval_metric_jet(field, p)
    g, det, inv, gamma = _inverse_and_gamma(mjet)
    b_u, b_v, alpha_u, alpha_v = _connection_coeffs(g, det, inv, gamma)
    return ConnectionForm(float(b_u.val), float(b_v.val), float(alpha_u), float(alpha_v))


def curvature_two_form(field: MetricField, p: Point2) -> CurvatureReport:
    """K, sqrt(det g) and the analytic jet curl of the connection form."""
    mjet = eval_metric_jet(field, p)
    return CurvatureReport(*(float(c) for c in _report_channels(mjet)))


def curvature_report_grid(field: MetricField, us: np.ndarray,
                          vs: np.ndarray) -> CurvatureReport:
    """Vectorized CurvatureReport; array channels shaped like the input."""
    mjet = eval_metric_grid(field, us, vs)
    *channels, alpha_max = _report_channels(mjet)
    shape = np.broadcast(us, vs).shape
    return CurvatureReport(*(np.broadcast_to(c, shape) for c in channels), alpha_max)


def _periodic_one_form(domain: ParamDomain, spec: QuadratureSpec, us: np.ndarray,
                       vs: np.ndarray, eta_u, eta_v, imag_max: float = 0.0) -> OneForm:
    """A OneForm from flat u-major values on ``build_nodes(domain, spec)``."""
    if not (isinstance(domain, RectDomain) and domain.fully_periodic):
        raise PeriodicityError("one-forms are sampled on the uniform grid of a fully "
                               "periodic rectangle chart")
    shape = (spec.n_u, spec.n_v)
    return OneForm(us=us.reshape(shape)[:, 0], vs=vs.reshape(shape)[0],
                   eta_u=np.reshape(eta_u, shape), eta_v=np.reshape(eta_v, shape),
                   imag_max=imag_max)


def connection_difference(sample: CurvatureSample,
                          sample_prime: CurvatureSample) -> OneForm:
    """eta = -i*(omega - omega') = b - b' from two samples on the same
    uniform grid of a fully periodic chart.

    Both connection forms are taken in the unitary frames built over the
    same base direction du, so their difference is a global real 1-form.
    imag_max is max(max|alpha|, max|alpha'|), the larger hermiticity
    residual of the two fields (not max|alpha - alpha'|).
    """
    if (sample.domain, sample.spec) != (sample_prime.domain, sample_prime.spec):
        raise DomainMismatchError("connection_difference needs samples on the same nodes")
    rep, rep_prime = sample.report, sample_prime.report
    return _periodic_one_form(sample.domain, sample.spec, sample.us, sample.vs,
                              rep.b_u - rep_prime.b_u, rep.b_v - rep_prime.b_v,
                              imag_max=max(rep.alpha_max, rep_prime.alpha_max))


def fd_curl(form: OneForm, domain: RectDomain) -> np.ndarray:
    """d_u eta_v - d_v eta_u by central differences with periodic wrap;
    the step is the grid spacing."""
    h_u = (domain.u_max - domain.u_min) / len(form.us)
    h_v = (domain.v_max - domain.v_min) / len(form.vs)
    d_u = (np.roll(form.eta_v, -1, axis=0) - np.roll(form.eta_v, 1, axis=0)) / (2.0 * h_u)
    d_v = (np.roll(form.eta_u, -1, axis=1) - np.roll(form.eta_u, 1, axis=1)) / (2.0 * h_v)
    return d_u - d_v


def exact_one_form(domain: RectDomain, potential, n_u: int, n_v: int) -> OneForm:
    """d(potential) sampled on the periodic grid; potential maps jet seeds
    to a jet (use jets.sin and friends)."""
    spec = QuadratureSpec(n_u, n_v)
    us, vs, _ = build_nodes(domain, spec)
    p = potential(jets.var_u(us), jets.var_v(vs))
    return _periodic_one_form(domain, spec, us, vs, np.broadcast_to(p.du, us.shape),
                              np.broadcast_to(p.dv, us.shape))
