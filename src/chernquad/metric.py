"""Chart domains and metric tensor fields with second-order jets.

A surface is presented by a single chart: a parameter domain (rectangle
with optional periodic axes, or a geodesic polygon of the Poincare
disk) together with a smooth field of symmetric positive-definite 2x2
matrices.  Every field evaluation returns a :class:`MetricJet`, the
metric components as :class:`~chernquad.jets.Jet2` values, so
downstream curvature formulas get first and second metric derivatives
that are exact to rounding.

Transformations produce new fields from old ones:

``twist_metric``
    the pullback of g by the twist (u, v) -> (u, v + a sin u), whose
    Jacobian determinant is 1 for every amplitude a, with jets propagated
    by the chain rule through second order; composing second-order
    Taylor data is what makes the pulled-back second derivatives exact.
``conformal_scale``
    f * g for a strictly positive scalar factor with jets.
``perturb_metric``
    e^(a*psi) * g plus a symmetric low-frequency trigonometric
    off-diagonal term, seed-deterministic, validated SPD on a probe grid.

Evaluators are pure functions of (u, v) and accept floats or numpy
arrays; grid sampling costs one vectorized pass.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Sequence, Union

import numpy as np

from . import jets
from .errors import (
    DomainMismatchError,
    NonpositiveFactorError,
    PointOutsideDomainError,
    SpdViolationError,
)
from .expressions import eval_jet, parse
from .jets import Channel, Jet2

SPD_TOL = 1e-12

INTERIOR_MARGIN = 0.05  # share of the chart that sample_interior keeps off its edges


@dataclass(frozen=True)
class Point2:
    u: float
    v: float


@dataclass(frozen=True)
class RectDomain:
    """Axis-aligned parameter rectangle; periodic axes identify their ends."""

    u_min: float
    u_max: float
    v_min: float
    v_max: float
    periodic_u: bool = False
    periodic_v: bool = False

    def __post_init__(self):
        if not (self.u_min < self.u_max and self.v_min < self.v_max):
            raise ValueError("degenerate rectangle: need u_min < u_max and v_min < v_max")

    @property
    def fully_periodic(self) -> bool:
        return self.periodic_u and self.periodic_v

    def contains(self, p: Point2) -> bool:
        ok_u = self.periodic_u or (self.u_min < p.u < self.u_max)
        ok_v = self.periodic_v or (self.v_min < p.v < self.v_max)
        return ok_u and ok_v

    def sample_interior(self, rng: np.random.Generator, n: int):
        """n interior points, kept INTERIOR_MARGIN of the side length away
        from non-periodic edges (degenerate seams such as sphere poles sit
        on the boundary)."""
        du = self.u_max - self.u_min
        dv = self.v_max - self.v_min
        mu = 0.0 if self.periodic_u else INTERIOR_MARGIN * du
        mv = 0.0 if self.periodic_v else INTERIOR_MARGIN * dv
        us = rng.uniform(self.u_min + mu, self.u_max - mu, size=n)
        vs = rng.uniform(self.v_min + mv, self.v_max - mv, size=n)
        return us, vs


def _segments_cross(a, b, c, d) -> bool:
    def orient(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    o1, o2 = orient(a, b, c), orient(a, b, d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    return (o1 * o2 < 0) and (o3 * o4 < 0)


@dataclass(frozen=True)
class PolygonDomain:
    """Geodesic polygon of the Poincare disk chart.

    The vertices lie strictly inside the unit disk, and the sides are
    not chords but the circular arcs orthogonal to the unit circle
    through consecutive vertices, i.e. hyperbolic geodesics.  Those arcs
    bow toward the disk center, so the region is a strict subset of the
    straight-edge polygon on the same vertices.  The region must be
    star-shaped about the vertex centroid (true for the regular
    fundamental domains this package ships).
    """

    vertices: tuple[Point2, ...]

    def __post_init__(self):
        verts = self.vertices
        if len(verts) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        for p in verts:
            if p.u * p.u + p.v * p.v >= 1.0:
                raise ValueError("polygon vertices must lie strictly inside the unit disk")
        n = len(verts)
        pts = [(p.u, p.v) for p in verts]
        for i in range(n):
            for j in range(i + 1, n):
                if abs(i - j) in (1, n - 1):
                    continue
                if _segments_cross(pts[i], pts[(i + 1) % n], pts[j], pts[(j + 1) % n]):
                    raise ValueError("polygon must be simple (non-self-intersecting)")
        edge_arcs(self)  # fail fast on degenerate edges

    @property
    def centroid(self) -> Point2:
        us = [p.u for p in self.vertices]
        vs = [p.v for p in self.vertices]
        return Point2(sum(us) / len(us), sum(vs) / len(vs))

    def _shoelace(self) -> float:
        total = 0.0
        n = len(self.vertices)
        for i in range(n):
            a, b = self.vertices[i], self.vertices[(i + 1) % n]
            total += a.u * b.v - b.u * a.v
        return abs(total) / 2.0

    def area(self) -> float:
        """Euclidean chart area: shoelace, minus one circular segment per
        side."""
        total = self._shoelace()
        for arc in edge_arcs(self):
            phi = abs(arc.dphi)
            total -= arc.radius * arc.radius * (phi - math.sin(phi)) / 2.0
        return total

    def _inside_chords(self, p: Point2) -> bool:
        # crossing-number test, strict interior
        inside = False
        n = len(self.vertices)
        for i in range(n):
            a, b = self.vertices[i], self.vertices[(i + 1) % n]
            if (a.v > p.v) != (b.v > p.v):
                x_cross = a.u + (p.v - a.v) * (b.u - a.u) / (b.v - a.v)
                if p.u < x_cross:
                    inside = not inside
        return inside

    def contains(self, p: Point2) -> bool:
        if not self._inside_chords(p):
            return False
        # interior points lie outside every edge circle (each circle
        # bounds a hyperbolic half-plane whose far side holds the region)
        for arc in edge_arcs(self):
            du, dv = p.u - arc.cu, p.v - arc.cv
            if du * du + dv * dv <= arc.radius * arc.radius:
                return False
        return True

    def sample_interior(self, rng: np.random.Generator, n: int):
        """Rejection-sample n points inside the polygon shrunk about its
        centroid by ``1 - INTERIOR_MARGIN``."""
        c = self.centroid
        scale = 1.0 - INTERIOR_MARGIN
        lo_u = min(p.u for p in self.vertices)
        hi_u = max(p.u for p in self.vertices)
        lo_v = min(p.v for p in self.vertices)
        hi_v = max(p.v for p in self.vertices)
        us, vs = [], []
        while len(us) < n:
            u = rng.uniform(lo_u, hi_u)
            v = rng.uniform(lo_v, hi_v)
            # p sits in the scaled region iff its preimage under the
            # scaling about the centroid sits in the full region
            q = Point2(c.u + (u - c.u) / scale, c.v + (v - c.v) / scale)
            if (q.u * q.u + q.v * q.v) < 1.0 and self.contains(q):
                us.append(u)
                vs.append(v)
        return np.array(us), np.array(vs)


@dataclass(frozen=True)
class EdgeArc:
    """One geodesic side: circle center, radius, start angle, swept angle."""

    cu: float
    cv: float
    radius: float
    phi0: float
    dphi: float


@functools.lru_cache(maxsize=None)
def edge_arcs(domain: PolygonDomain) -> tuple[EdgeArc, ...]:
    """Per-edge circles orthogonal to the unit circle.

    The circle through an interior point p and its inversion p/|p|^2 is
    orthogonal to the unit circle; imposing that for both endpoints gives
    the linear system 2 c . p = |p|^2 + 1 per endpoint.  Each arc runs
    from vertex k to vertex k+1 the short way, which is the portion of
    the circle inside the disk.
    """
    verts = domain.vertices
    arcs = []
    for k in range(len(verts)):
        p, q = verts[k], verts[(k + 1) % len(verts)]
        det = 4.0 * (p.u * q.v - p.v * q.u)
        if abs(det) < 1e-14:
            raise ValueError("geodesic edge through the disk center has no arc form")
        rp = p.u * p.u + p.v * p.v + 1.0
        rq = q.u * q.u + q.v * q.v + 1.0
        cu = (2.0 * q.v * rp - 2.0 * p.v * rq) / det
        cv = (2.0 * p.u * rq - 2.0 * q.u * rp) / det
        radius = math.hypot(p.u - cu, p.v - cv)
        phi0 = math.atan2(p.v - cv, p.u - cu)
        phi1 = math.atan2(q.v - cv, q.u - cu)
        arcs.append(EdgeArc(cu, cv, radius, phi0, math.remainder(phi1 - phi0, math.tau)))
    return tuple(arcs)


ParamDomain = Union[RectDomain, PolygonDomain]


def _finite_min(values) -> str:
    finite = np.asarray(values, dtype=float)[np.isfinite(values)]
    return f"{np.min(finite):.3e}" if finite.size else "n/a"


@dataclass(frozen=True)
class MetricTensor:
    """Symmetric positive-definite 2x2 matrix (components, not a field).

    Components may be floats or arrays; positive-definiteness is checked
    elementwise at construction (g11 > 0 and det > SPD_TOL); the error
    names the finite minima and counts the non-finite nodes.
    """

    g11: Channel
    g12: Channel
    g22: Channel

    def __post_init__(self):
        det = self.g11 * self.g22 - self.g12 * self.g12
        if not (np.all(np.asarray(self.g11) > 0.0) and np.all(np.asarray(det) > SPD_TOL)):
            finite = np.isfinite(self.g11) & np.isfinite(det)
            bad = finite.size - np.count_nonzero(finite)
            raise SpdViolationError(
                f"metric is not positive definite (min g11 {_finite_min(self.g11)}, "
                f"min det {_finite_min(det)}"
                + (f"; not finite at {bad} of {finite.size} nodes)" if bad else ")"))

    @property
    def det(self) -> Channel:
        return self.g11 * self.g22 - self.g12 * self.g12

    def matrix(self) -> np.ndarray:
        return np.array([[self.g11, self.g12], [self.g12, self.g22]])


@dataclass(frozen=True)
class MetricJet:
    """Metric components with their first and second chart derivatives.

    The mixed partial is a single jet channel, so the two differentiation
    orders agree identically for closed-form evaluators.
    """

    g11: Jet2
    g12: Jet2
    g22: Jet2

    @property
    def value(self) -> MetricTensor:
        return MetricTensor(self.g11.val, self.g12.val, self.g22.val)


MetricEvaluator = Callable[[Channel, Channel], MetricJet]
CoframeEvaluator = Callable[[Channel, Channel], tuple[Jet2, Jet2, Jet2]]


@dataclass(frozen=True)
class MetricField:
    """A metric evaluator over a chart domain, and optionally its coframe.

    ``evaluator`` must be a pure function accepting floats or arrays.
    ``coframe``, when given, is a pure function of the same kind
    returning the jets (a, c, d) of the coframe theta1 = a du + c dv,
    theta2 = d dv with a, d > 0, so that a^2 = g11, a*c = g12 and
    c^2 + d^2 = g22.  theta2 must have no du term: then e1 = du/a is
    the frame of the Cholesky coframe the curvature kernel builds when
    ``coframe`` is None, and connection forms from either source live
    in one frame.  A closed-form coframe spares the kernel the square
    roots of the metric jets, which lose accuracy where det g degenerates
    (the sphere's poles).
    """

    domain: ParamDomain
    evaluator: MetricEvaluator = dataclass_field(repr=False)
    coframe: CoframeEvaluator | None = dataclass_field(default=None, repr=False)


def eval_metric_jet(field: MetricField, p: Point2) -> MetricJet:
    """Evaluate a field at a point, with domain and SPD checks."""
    if not field.domain.contains(p):
        raise PointOutsideDomainError(f"point ({p.u}, {p.v}) is outside the chart domain")
    jet = field.evaluator(p.u, p.v)
    jet.value  # noqa: B018 - constructing MetricTensor runs the SPD check
    return jet


def eval_metric_grid(field: MetricField, us: np.ndarray, vs: np.ndarray) -> MetricJet:
    """Vectorized evaluation at points assumed to lie in the domain."""
    jet = field.evaluator(np.asarray(us, dtype=float), np.asarray(vs, dtype=float))
    jet.value
    return jet


# ---------------------------------------------------------------------------
# the twist pullback


def _compose_scalar(h: Jet2, dp: Jet2, dq: Jet2) -> Jet2:
    # h holds the Taylor data of a scalar at the image point; dp, dq are
    # the centered component jets of the map.  Evaluating the order-2
    # Taylor polynomial in jet arithmetic is the order-2 chain rule.
    return (h.val + h.du * dp + h.dv * dq
            + 0.5 * h.duu * dp * dp + h.duv * dp * dq + 0.5 * h.dvv * dq * dq)


def twist_metric(field: MetricField, amplitude: float) -> MetricField:
    """The pullback of ``field`` by the twist (u, v) -> (u, v + a sin u).

    The twist is a degree-one self-map of any chart periodic in v.  Its
    Jacobian has columns (1, s) and (0, 1) with s = a cos u, so its
    determinant is 1 for every amplitude and the pullback
    (D phi)^T g(phi(p)) (D phi) is
    (g11 + 2 s g12 + s^2 g22, g12 + s g22, g22) at the image point.
    """
    a = float(amplitude)

    def evaluator(u, v):
        su, sv = jets.var_u(u), jets.var_v(v)
        q = sv + a * jets.sin(su)
        base = field.evaluator(su.val, q.val)
        dp, dq = su - su.val, q - q.val
        h11 = _compose_scalar(base.g11, dp, dq)
        h12 = _compose_scalar(base.g12, dp, dq)
        h22 = _compose_scalar(base.g22, dp, dq)
        s = a * jets.cos(su)
        return MetricJet(h11 + 2.0 * s * h12 + s * s * h22, h12 + s * h22, h22)

    return MetricField(domain=field.domain, evaluator=evaluator)


# ---------------------------------------------------------------------------
# conformal scaling and seeded perturbations

ScalarJetField = Callable[[Channel, Channel], Jet2]


def scalar_field_from_expression(text: str) -> ScalarJetField:
    ast = parse(text)
    return lambda u, v: eval_jet(ast, u, v)


def conformal_scale(field: MetricField, factor: ScalarJetField) -> MetricField:
    """f * g for a strictly positive scalar factor with jets."""

    def evaluator(u, v):
        base = field.evaluator(u, v)
        f = factor(u, v)
        if np.any(np.asarray(f.val) <= 0.0):
            raise NonpositiveFactorError("conformal factor must be strictly positive")
        return MetricJet(f * base.g11, f * base.g12, f * base.g22)

    return MetricField(domain=field.domain, evaluator=evaluator)


def _trig_sum(terms, u: Jet2, v: Jet2) -> Jet2:
    out = Jet2(0.0)
    for coeff, ku, kv, phase in terms:
        out = out + coeff * jets.sin(ku * u + kv * v + phase)
    return out


def _draw_trig_terms(rng: np.random.Generator, n_terms: int):
    coeffs = rng.uniform(-1.0, 1.0, size=n_terms)
    coeffs = coeffs / np.sum(np.abs(coeffs))
    freqs = rng.integers(0, 3, size=(n_terms, 2))
    # avoid constant terms: force at least one nonzero frequency
    for i in range(n_terms):
        if freqs[i, 0] == 0 and freqs[i, 1] == 0:
            freqs[i, 0] = 1
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n_terms)
    return [(float(coeffs[i]), int(freqs[i, 0]), int(freqs[i, 1]), float(phases[i]))
            for i in range(n_terms)]


PROBE_GRID = 64


def perturb_metric(field: MetricField, seed: int, amplitude: float) -> MetricField:
    """e^(a*psi) * g plus an off-diagonal a*chi*sqrt(g11*g22)/2 term.

    psi and chi are seed-deterministic sums of low-frequency (|k| <= 2)
    trigonometric terms with unit l1 coefficient norm, so the domain
    periodicity is preserved and amplitude 0 returns an identical field.
    The result is validated SPD on a PROBE_GRID x PROBE_GRID grid.
    """
    if not isinstance(field.domain, RectDomain):
        raise DomainMismatchError("perturb_metric expects a rectangle chart domain")
    rng = np.random.default_rng(seed)
    psi_terms = _draw_trig_terms(rng, 3)
    chi_terms = _draw_trig_terms(rng, 2)
    a = float(amplitude)

    def evaluator(u, v):
        base = field.evaluator(u, v)
        su, sv = jets.var_u(u), jets.var_v(v)
        scale = jets.exp(a * _trig_sum(psi_terms, su, sv))
        off = a * 0.5 * _trig_sum(chi_terms, su, sv) * jets.sqrt(base.g11 * base.g22)
        return MetricJet(scale * base.g11, scale * base.g12 + off, scale * base.g22)

    out = MetricField(domain=field.domain, evaluator=evaluator)
    dom = field.domain
    us = np.linspace(dom.u_min, dom.u_max, PROBE_GRID + 1)[:-1] if dom.periodic_u else \
        np.linspace(dom.u_min, dom.u_max, PROBE_GRID + 2)[1:-1]
    vs = np.linspace(dom.v_min, dom.v_max, PROBE_GRID + 1)[:-1] if dom.periodic_v else \
        np.linspace(dom.v_min, dom.v_max, PROBE_GRID + 2)[1:-1]
    uu, vv = np.meshgrid(us, vs, indexing="ij")
    try:
        with np.errstate(all="ignore"):
            eval_metric_grid(out, uu.ravel(), vv.ravel())
    except SpdViolationError as exc:
        raise SpdViolationError(
            f"perturbation (seed {seed}, amplitude {amplitude}) breaks positive "
            f"definiteness on the probe grid: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# builtin evaluator helper


def metric_field_from_expressions(domain: ParamDomain, g11: str, g12: str,
                                  g22: str) -> MetricField:
    """Build a field whose components are parsed expressions in u and v."""
    asts = [parse(g11), parse(g12), parse(g22)]

    def evaluator(u, v):
        return MetricJet(eval_jet(asts[0], u, v),
                         eval_jet(asts[1], u, v),
                         eval_jet(asts[2], u, v))

    return MetricField(domain=domain, evaluator=evaluator)
