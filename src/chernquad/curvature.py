"""Levi-Civita connection data and the curvature two-form of the tangent line.

The unitary frame is e1 = du/|du|, e2 = J e1 for the hermitian
structure; metric compatibility makes the connection form in that frame
purely imaginary, omega = i * (b_u du + b_v dv) with real
b_a = g(nabla_a e1, e2).  The two-form coefficient

    two_form_coeff = -(d_u b_v - d_v b_u)

is the coefficient of i * curv(nabla) against du^dv and must reproduce
K * sqrt(det g) pointwise; integrating it (or K * sqrt(det g)) against
the chart quadrature and dividing by 2*pi gives the first Chern number.

``curvature_report_grid`` is the vectorized kernel.  It takes the
two-form and K * sqrt(det g) by two independent closed-form routes on
plain arrays of jet channels:

* Cartan.  The coframe theta1 = a du + c dv, theta2 = d dv is dual to
  (e1, e2).  Its jets come from the field's ``coframe`` when it has one
  (exact for the builtin surfaces), else from the Cholesky factor of
  the metric jets, a = sqrt(E), c = F/a, d = sqrt(EG - F^2)/a.  The
  structure equations (do Carmo, *Differential Forms and
  Applications*, ch. 5) give b_u = (d_u c - d_v a)/d and
  b_v = (d_u d + b_u c)/a, and the product and quotient rules on the
  second-order channels of a, c, d give their derivatives.
* Brioschi.  K from the two 3x3 determinants of E, F, G and their first
  and second derivatives, expanded; no square root of a jet, no
  Christoffel symbol.  sqrt(det g) is taken of the value alone.

``identity_residual`` compares the two routes.  alpha_max, the
hermiticity residual max|g(nabla_a e1, e1)|, comes from Christoffel
values, which need only first metric derivatives.  The Jet2 Christoffel
route (``gauss_curvature``, ``connection_form``) takes first derivatives
of Christoffel symbols from second metric derivatives, and stays as the
independent pointwise oracle of the tests and ``verify``.
``curvature_two_form`` is a one-node call of the grid kernel.

A ``CurvatureSample`` (built by ``chern.curvature_sample``) keeps of the
kernel's output only what its readers read: the two-form and K * sqrt(det g)
for the Chern integrals, b_u, b_v and alpha_max for
``connection_difference``, and the largest identity residual.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from . import jets
from .errors import DomainMismatchError, PeriodicityError
from .jets import Jet2, partial_jet
from .metric import (MetricField, MetricJet, ParamDomain, Point2, RectDomain,
                     eval_metric_grid, eval_metric_jet)
from .quadrature import QuadratureSpec


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
        return identity_residual(self.two_form_coeff, self.k * self.area_coeff)


def identity_residual(two_form, k_area) -> float:
    """max |two_form - k_area| / (1 + |k_area|): how far the Cartan
    two-form and the Brioschi K * sqrt(det g) disagree, relative to the
    size of K * sqrt(det g) where it is large."""
    return float(np.max(np.abs(two_form - k_area) / (1.0 + np.abs(k_area))))


@dataclass(frozen=True)
class OneForm:
    """A 1-form sampled on a periodic rectangle grid, as (n_u, n_v)
    arrays indexed [u, v]."""

    eta_u: np.ndarray
    eta_v: np.ndarray
    imag_max: float = 0.0


@dataclass(frozen=True)
class CurvatureSample:
    """The curvature channels that the Chern integrals, the connection
    difference and the grid dump read, on ``build_nodes(domain, spec)``:
    flat arrays in u-major order of the two-form coefficient,
    k_area = K * sqrt(det g) and b_u, b_v, with the largest hermiticity
    residual ``alpha_max`` and the largest ``identity_residual`` over
    the nodes."""

    domain: ParamDomain
    spec: QuadratureSpec
    us: np.ndarray
    vs: np.ndarray
    weights: np.ndarray
    two_form: np.ndarray
    k_area: np.ndarray
    b_u: np.ndarray
    b_v: np.ndarray
    alpha_max: float
    max_identity_residual: float


# ---------------------------------------------------------------------------
# the Jet2 Christoffel route, kept as the pointwise oracle


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
        b = (g[0][0] * w0 * e2[0]
             + g[0][1] * (w0 * e2[1] + w1 * e2[0])
             + g[1][1] * w1 * e2[1])
        alpha = (g[0][0].val * w0.val + g[0][1].val * w1.val) * f.val
        bs.append(b)
        alphas.append(alpha)
    return bs[0], bs[1], alphas[0], alphas[1]


# ---------------------------------------------------------------------------
# the closed-form kernel: plain arithmetic on jet channels (scalar or array)


def _brioschi_k(mjet: MetricJet):
    """K = (det M1 - det M2) / det(g)^2 with both determinants expanded."""
    e, f, g = mjet.g11, mjet.g12, mjet.g22
    det = e.val * g.val - f.val * f.val
    # M1 = [[top, p, q], [s, E, F], [t, F, G]]; M2 = [[0, h, k], [h, E, F], [k, F, G]]
    top = -0.5 * e.dvv + f.duv - 0.5 * g.duu
    p, q = 0.5 * e.du, f.du - 0.5 * e.dv
    s, t = f.dv - 0.5 * g.du, 0.5 * g.dv
    h, k = 0.5 * e.dv, 0.5 * g.du
    det_m1 = top * det - p * (s * g.val - f.val * t) + q * (s * f.val - e.val * t)
    det_m2 = k * (h * f.val - e.val * k) - h * (h * g.val - f.val * k)
    return (det_m1 - det_m2) / (det * det), det


def _cartan(a: Jet2, c: Jet2, d: Jet2):
    """b_u, b_v and the two-form from the coframe (a du + c dv, d dv):
    d theta1 = b ^ theta2 and d theta2 = -b ^ theta1, curv = -db."""
    b_u = (c.du - a.dv) / d.val
    b_u_du = (c.duu - a.duv - b_u * d.du) / d.val
    b_u_dv = (c.duv - a.dvv - b_u * d.dv) / d.val
    b_v = (d.du + b_u * c.val) / a.val
    b_v_du = (d.duu + b_u_du * c.val + b_u * c.du - b_v * a.du) / a.val
    return b_u, b_v, -(b_v_du - b_u_dv)


def _cholesky_coframe(mjet: MetricJet):
    a = jets.sqrt(mjet.g11)
    inv_a = jets.reciprocal(a)
    return (a, mjet.g12 * inv_a,
            jets.sqrt(mjet.g11 * mjet.g22 - mjet.g12 * mjet.g12) * inv_a)


def _alpha_max(mjet: MetricJet, det) -> float:
    """max |alpha_a| over both axes, alpha_a = g(nabla_a e1, e1) for
    e1 = du/sqrt(E), which is (E Gamma^0_a0 + F Gamma^1_a0 - d_a E / 2) / E
    with the values Gamma^k_a0 = (g^k0 d_a E + g^k1 l_a) / 2."""
    e, f, g = mjet.g11, mjet.g12, mjet.g22
    worst = 0.0
    # (d_a E, l_a) with l_u = 2 d_u F - d_v E and l_v = d_u G
    for d_e, lower in ((e.du, 2.0 * f.du - e.dv), (e.dv, g.du)):
        gamma0 = 0.5 * (g.val * d_e - f.val * lower) / det
        gamma1 = 0.5 * (e.val * lower - f.val * d_e) / det
        alpha = (e.val * gamma0 + f.val * gamma1 - 0.5 * d_e) / e.val
        worst = max(worst, float(np.max(np.abs(alpha))))
    return worst


def _kernel(field: MetricField, mjet: MetricJet, us, vs) -> CurvatureReport:
    coframe = _cholesky_coframe(mjet) if field.coframe is None else field.coframe(us, vs)
    b_u, b_v, two_form = _cartan(*coframe)
    k, det = _brioschi_k(mjet)
    shape = np.broadcast(us, vs).shape
    return CurvatureReport(*(np.broadcast_to(c, shape)
                             for c in (k, np.sqrt(det), two_form, b_u, b_v)),
                           _alpha_max(mjet, det))


# ---------------------------------------------------------------------------
# public entry points


def gauss_curvature(field: MetricField, p: Point2) -> float:
    """Sectional curvature of the chart plane, K = g(R(X,Y)Y, X) /
    (g(X,X) g(Y,Y) - g(X,Y)^2) with X = du, Y = dv."""
    mjet = eval_metric_jet(field, p)
    g, det, _, gamma = _inverse_and_gamma(mjet)
    return float(_curvature_k(g, det, gamma))


def connection_form(field: MetricField, p: Point2) -> ConnectionForm:
    mjet = eval_metric_jet(field, p)
    g, det, inv, gamma = _inverse_and_gamma(mjet)
    b_u, b_v, alpha_u, alpha_v = _connection_coeffs(g, det, inv, gamma)
    return ConnectionForm(float(b_u.val), float(b_v.val), float(alpha_u), float(alpha_v))


def curvature_two_form(field: MetricField, p: Point2) -> CurvatureReport:
    """The grid kernel's report at one point, with the domain check."""
    rep = _kernel(field, eval_metric_jet(field, p), p.u, p.v)
    return CurvatureReport(*(float(c) for c in astuple(rep)))


def curvature_report_grid(field: MetricField, us: np.ndarray,
                          vs: np.ndarray) -> CurvatureReport:
    """Vectorized CurvatureReport; array channels shaped like the input."""
    us, vs = np.asarray(us, dtype=float), np.asarray(vs, dtype=float)
    return _kernel(field, eval_metric_grid(field, us, vs), us, vs)


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
    domain = sample.domain
    if not (isinstance(domain, RectDomain) and domain.fully_periodic):
        raise PeriodicityError("one-forms are sampled on the uniform grid of a fully "
                               "periodic rectangle chart")
    shape = (sample.spec.n_u, sample.spec.n_v)
    return OneForm(eta_u=np.reshape(sample.b_u - sample_prime.b_u, shape),
                   eta_v=np.reshape(sample.b_v - sample_prime.b_v, shape),
                   imag_max=max(sample.alpha_max, sample_prime.alpha_max))


def fd_curl(form: OneForm, domain: RectDomain) -> np.ndarray:
    """d_u eta_v - d_v eta_u by central differences with periodic wrap;
    the step is the grid spacing."""
    n_u, n_v = form.eta_u.shape
    h_u = (domain.u_max - domain.u_min) / n_u
    h_v = (domain.v_max - domain.v_min) / n_v
    d_u = (np.roll(form.eta_v, -1, axis=0) - np.roll(form.eta_v, 1, axis=0)) / (2.0 * h_u)
    d_v = (np.roll(form.eta_u, -1, axis=1) - np.roll(form.eta_u, 1, axis=1)) / (2.0 * h_v)
    return d_u - d_v

