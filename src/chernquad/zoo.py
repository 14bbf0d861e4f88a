"""Builtin surfaces: charts, closed-form metric jets, and expected invariants.

Every surface is a single chart.  Poles and periodic seams are measure
zero and excluded from the open domain; the integrands extend by zero.

kinds
-----
``sphere`` {R > 0}
    (0, pi) x [0, 2pi), v periodic; g = diag(R^2, R^2 sin^2 u); Chern 2.
``torus_revolution`` {R > r > 0}
    [0, 2pi)^2 periodic; g = diag(r^2, (R + r cos u)^2);
    K = cos u / (r (R + r cos u)); Chern 0.
``flat_torus`` {a, b > 0}
    [0, 2pi)^2 periodic; g = diag(a^2, b^2); K = 0; Chern 0.
``poincare_octagon``
    regular hyperbolic octagon (interior angles pi/4, vertex radius
    2^(-1/4)) in the unit-disk chart with g = 4 / (1 - u^2 - v^2)^2 * I;
    K = -1; hyperbolic area 4*pi; Chern -2.

Each builtin metric also puts its coframe theta1 = a du + c dv,
theta2 = d dv on the metric jet it returns (see ``MetricJet``), built
from the same subexpression as the metric: a = R, c = 0, d = R sin u
for the sphere; a = r, c = 0, d = R + r cos u for the torus; constant
a, d and c = 0 for the flat torus; a = d = 2 / (1 - u^2 - v^2), c = 0
for the octagon.  theta2 has no du term, so e1 = du/a is the frame of
the Cholesky coframe that derived and custom surfaces get.  The
curvature kernel's two-form then never takes a square root of a metric
jet, and the sphere's stays accurate to rounding up to the poles.
Constant metric and coframe components are scalar-channel jets such as
``Jet2(r * r)``, which the kernel broadcasts over the nodes.  The
octagon's chart is ``metric.OctagonDomain``.

``BUILTIN_KINDS`` is the one table of these kinds: it maps each to its
constructor and its parameter keys, and drives ``make_surface``, the
``[surface]`` key check of configs and ``chernquad list``.  Each
builtin rejects parameters whose metric scales (the squares of its
components, its det and the det squared that the Brioschi formula
divides by) leave the normal float range.

``COMPARE_MODES`` is the same table for the second metric of a
comparison.  Each of its constructors builds a metric that evaluates
its base's at the coordinate jets or their image, and keeps the base's
chart, expected Chern number and reference resolution, but not its K:

``conformal_surface``
    f * g for a strictly positive factor f, an expression in u and v,
    whose scaled metric scales are checked on a probe grid as the
    builtins' are.
``perturbed_surface``
    e^(a*psi) * g plus a symmetric low-frequency trigonometric
    off-diagonal term, seed-deterministic, validated SPD on a probe grid.
``twisted_surface``
    the pullback of g by the twist (u, v) -> (u, v + a sin u), whose
    Jacobian determinant is 1 for every amplitude a; g is evaluated at
    the jets of the image point, so jet arithmetic carries the chain
    rule through second order.

``custom_surface`` takes the metric components as expressions.  Derived
and expression jets carry no coframe.  Parameter defaults of both tables
live only in the constructor signatures.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np
from numpy.random import Generator, default_rng

from . import jets
from .errors import (DomainMismatchError, MetricScaleError, NonpositiveFactorError,
                     SpdViolationError)
from .expressions import eval_jet, parse
from .jets import Jet2
from .metric import Metric, MetricJet, OctagonDomain, ParamDomain, RectDomain
from .quadrature import QuadratureSpec, build_nodes

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Surface:
    """A named chart with its metric, plus known invariants.

    ``metric`` must be a pure function of the coordinate jets (u, v);
    ``evaluator`` seeds them from floats or arrays, the one place in this
    module where a surface's coordinates become jets.  Whether a
    channel it returns depends on u or v (is not broadcast along that
    axis) follows from its code, not from the values of u and v, so
    ``chern.curvature_sample`` sizes its stores from the first tile;
    every builtin, derived and expression metric meets this.
    ``expected_chern`` and ``analytic_k`` are None when unknown (custom
    surfaces).  ``reference_resolution`` is the (n_u, n_v) at which the
    expected Chern number is reproduced well inside the acceptance band.
    """

    name: str
    domain: ParamDomain
    metric: Metric = field(repr=False)
    expected_chern: int | None
    analytic_k: Callable[[np.ndarray, np.ndarray], np.ndarray] | None
    reference_resolution: tuple[int, int]

    def evaluator(self, u, v) -> MetricJet:
        """The metric jet at floats or arrays (u, v) that broadcast together."""
        return self.metric(jets.var_u(u), jets.var_v(v))


def _normal(values) -> bool:
    return bool(np.all((sys.float_info.min <= values) & (values < math.inf)))


def _check_scales(name: str, *scales: tuple[str, float]) -> None:
    """Metric scales (label, value) past the normal floats spoil every node."""
    for label, scale in scales:
        if not _normal(scale):
            raise MetricScaleError(f"{name}: metric scale {label} = {scale:g} is outside "
                                   "the normal float range")


PROBE_GRID = QuadratureSpec(64, 64)  # derived metrics are checked on its nodes


def sphere(radius: float = 1.0) -> Surface:
    if not 0.0 < radius < math.inf:
        raise ValueError("sphere radius must be positive and finite")
    r2 = radius * radius
    r4 = r2 * r2
    name = f"sphere(R={radius:g})"
    _check_scales(name, ("R^2", r2), ("R^4", r4), ("R^8", r4 * r4))
    domain = RectDomain(0.0, math.pi, 0.0, TWO_PI, periodic_u=False, periodic_v=True)

    def metric(u, v):
        s = jets.sin(u)
        return MetricJet(Jet2(r2), Jet2(0.0), r2 * s * s,
                         coframe=(Jet2(radius), Jet2(0.0), radius * s))

    return Surface(name=name, domain=domain, metric=metric, expected_chern=2,
                   analytic_k=lambda u, v: np.broadcast_to(1.0 / r2, np.shape(u)),
                   reference_resolution=(64, 128))


def torus_revolution(big_radius: float = 2.0, small_radius: float = 1.0) -> Surface:
    if not math.inf > big_radius > small_radius > 0.0:
        raise ValueError("torus of revolution needs finite R > r > 0")
    domain = RectDomain(0.0, TWO_PI, 0.0, TWO_PI, periodic_u=True, periodic_v=True)
    r, R = small_radius, big_radius
    name = f"torus_revolution(R={R:g},r={r:g})"
    ring_min, ring_max = r * (R - r), r * (R + r)  # the range of sqrt(det g)
    det_min, det_max = ring_min * ring_min, ring_max * ring_max
    _check_scales(name, ("r^2", r * r), ("(R+r)^2", (R + r) * (R + r)),
                  ("r^2 (R-r)^2", det_min), ("r^4 (R+r)^4", det_max * det_max),
                  ("r^4 (R-r)^4", det_min * det_min))

    def metric(u, v):
        ring = R + r * jets.cos(u)
        return MetricJet(Jet2(r * r), Jet2(0.0), ring * ring,
                         coframe=(Jet2(r), Jet2(0.0), ring))

    return Surface(name=name, domain=domain, metric=metric, expected_chern=0,
                   analytic_k=lambda u, v: np.cos(u) / (r * (R + r * np.cos(u))),
                   reference_resolution=(128, 128))


def flat_torus(a: float = 1.0, b: float = 1.0) -> Surface:
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValueError("flat torus needs positive finite side scales")
    name = f"flat_torus(a={a:g},b={b:g})"
    det = a * a * b * b
    _check_scales(name, ("a^2", a * a), ("b^2", b * b), ("a^2 b^2", det),
                  ("a^4 b^4", det * det))
    domain = RectDomain(0.0, TWO_PI, 0.0, TWO_PI, periodic_u=True, periodic_v=True)

    def metric(u, v):
        return MetricJet(Jet2(a * a), Jet2(0.0), Jet2(b * b),
                         coframe=(Jet2(a), Jet2(0.0), Jet2(b)))

    return Surface(name=name, domain=domain, metric=metric, expected_chern=0,
                   analytic_k=lambda u, v: np.zeros(np.shape(u)),
                   reference_resolution=(64, 64))


def poincare_octagon() -> Surface:
    # the geodesic octagon is the true fundamental domain, whose
    # hyperbolic area 4*pi carries the Chern number -2

    def metric(u, v):
        s = 1.0 - u * u - v * v
        h = 4.0 / (s * s)
        scale = 2.0 / s
        return MetricJet(h, Jet2(0.0), h, coframe=(scale, Jet2(0.0), scale))

    return Surface(name="poincare_octagon", domain=OctagonDomain(), metric=metric,
                   expected_chern=-2, analytic_k=lambda u, v: np.full(np.shape(u), -1.0),
                   reference_resolution=(32, 32))


# ---------------------------------------------------------------------------
# derived surfaces: each keeps its base's chart, Chern number and resolution


def conformal_surface(base: Surface, factor: str = "") -> Surface:
    """f * g for the strictly positive scalar factor f = ``factor``.

    On a rectangle chart f and g are probed on the quadrature nodes of
    PROBE_GRID, as in ``perturbed_surface``.  Where f is positive there
    and g's own scales are normal floats, the builtins' scale rule applies
    to f g11, f g22, f^2 det g and its square, so a factor that drives
    them past the normal floats raises MetricScaleError, naming the
    factor, before any quadrature, as does a factor that is NaN or
    infinite at a probe node.  A factor that is not positive is reported
    by the metric (NonpositiveFactorError).
    """
    if not factor:
        raise ValueError("conformal mode requires factor")
    expr = parse(factor)
    name = f"{base.name}|conformal({factor})"

    def metric(u, v):
        g = base.metric(u, v)
        f = expr(u, v)
        if np.any(np.asarray(f.val) <= 0.0):
            raise NonpositiveFactorError("conformal factor must be strictly positive")
        return MetricJet(f * g.g11, f * g.g12, f * g.g22)

    if isinstance(base.domain, RectDomain):
        us, vs, _ = build_nodes(base.domain, PROBE_GRID)
        with np.errstate(all="ignore"):
            f = eval_jet(expr, us, vs).val
            g = base.evaluator(us, vs)
            g11, g22 = g.g11.val, g.g22.val
            det = g11 * g22 - g.g12.val * g.g12.val
            f2_det = f * f * det
            scaled = (("f g11", f * g11), ("f g22", f * g22), ("f^2 det g", f2_det),
                      ("f^4 (det g)^2", f2_det * f2_det))
            base_scales = (g11, g22, det, det * det)
        if not np.all(np.isfinite(f)):
            raise MetricScaleError(f"{name}: conformal factor is not finite on the probe grid")
        if np.all(f > 0.0) and all(_normal(s) for s in base_scales):
            _check_scales(name, *((label, x) for label, s in scaled
                                  for x in (np.min(s), np.max(s))))
    return replace(base, name=name, metric=metric, analytic_k=None)


def _trig_sum(terms, u: Jet2, v: Jet2) -> Jet2:
    out = Jet2(0.0)
    for coeff, ku, kv, phase in terms:
        out = out + coeff * jets.sin(ku * u + kv * v + phase)
    return out


def _draw_trig_terms(rng: Generator, n_terms: int):
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


def perturbed_surface(base: Surface, seed: int = 1, amplitude: float = 0.1) -> Surface:
    """e^(a*psi) * g plus an off-diagonal a*chi*sqrt(g11*g22)/2 term.

    psi and chi are seed-deterministic sums of low-frequency (|k| <= 2)
    trigonometric terms with unit l1 coefficient norm, so the domain
    periodicity is preserved and amplitude 0 returns an identical metric.
    The result is validated SPD on the quadrature nodes of PROBE_GRID.
    """
    dom = base.domain
    if not isinstance(dom, RectDomain):
        raise DomainMismatchError("perturbed_surface expects a rectangle chart domain")
    rng = default_rng(seed)
    psi_terms = _draw_trig_terms(rng, 3)
    chi_terms = _draw_trig_terms(rng, 2)
    a = float(amplitude)

    def metric(u, v):
        g = base.metric(u, v)
        scale = jets.exp(a * _trig_sum(psi_terms, u, v))
        off = a * 0.5 * _trig_sum(chi_terms, u, v) * jets.sqrt(g.g11 * g.g22)
        return MetricJet(scale * g.g11, scale * g.g12 + off, scale * g.g22)

    surface = replace(base, name=f"{base.name}|perturbed(seed={seed},amp={amplitude:g})",
                      metric=metric, analytic_k=None)
    us, vs, _ = build_nodes(dom, PROBE_GRID)
    try:
        with np.errstate(all="ignore"):
            surface.evaluator(us, vs).value  # noqa: B018 - the SPD check
    except SpdViolationError as exc:
        raise SpdViolationError(
            f"perturbation (seed {seed}, amplitude {amplitude}) breaks positive "
            f"definiteness on the probe grid: {exc}") from exc
    return surface


def twisted_surface(base: Surface, amplitude: float = 0.3) -> Surface:
    """The pullback of the metric by the twist (u, v) -> (u, v + a sin u).

    The twist is a degree-one self-map of any chart periodic in v.  Its
    Jacobian has columns (1, s) and (0, 1) with s = a cos u, so its
    determinant is 1 for every amplitude and the pullback
    (D phi)^T g(phi(p)) (D phi) is
    (g11 + 2 s g12 + s^2 g22, g12 + s g22, g22) with g evaluated at the
    jets of the image point.
    """
    a = float(amplitude)

    def metric(u, v):
        g = base.metric(u, v + a * jets.sin(u))
        s = a * jets.cos(u)
        return MetricJet(g.g11 + 2.0 * s * g.g12 + s * s * g.g22, g.g12 + s * g.g22, g.g22)

    return replace(base, name=f"{base.name}|twist({amplitude:g})", metric=metric,
                   analytic_k=None)


def custom_surface(name: str, domain: ParamDomain, g11: str, g12: str,
                   g22: str) -> Surface:
    """A surface whose metric components are parsed expressions in u and v.

    Components with the same text, such as g11 and g22 of a metric in
    isothermal coordinates, share one parse and one jet per evaluation."""
    exprs = {text: parse(text) for text in (g11, g12, g22)}

    def metric(u, v):
        jet = {text: expr(u, v) for text, expr in exprs.items()}
        return MetricJet(jet[g11], jet[g12], jet[g22])

    n = 64 if isinstance(domain, RectDomain) else 32
    return Surface(name=name, domain=domain, metric=metric, expected_chern=None,
                   analytic_k=None, reference_resolution=(n, n))


# kind -> (constructor, {parameter key: constructor argument})
BUILTIN_KINDS = {
    "sphere": (sphere, {"R": "radius"}),
    "torus_revolution": (torus_revolution, {"R": "big_radius", "r": "small_radius"}),
    "flat_torus": (flat_torus, {"a": "a", "b": "b"}),
    "poincare_octagon": (poincare_octagon, {}),
}


# mode -> (constructor, parameter keys) of the second metric of a comparison
COMPARE_MODES = {"conformal": (conformal_surface, ("factor",)),
                 "perturb": (perturbed_surface, ("seed", "amplitude")),
                 "twist": (twisted_surface, ("amplitude",))}


def make_surface(kind: str, params: Mapping[str, float] | None = None) -> Surface:
    """Builtin surface by kind name; raises ValueError for unknown kinds
    or parameters."""
    if kind not in BUILTIN_KINDS:
        raise ValueError(f"unknown surface kind {kind!r}; kinds: {sorted(BUILTIN_KINDS)}")
    constructor, keys = BUILTIN_KINDS[kind]
    params = dict(params or {})
    out = constructor(**{arg: float(params.pop(key)) for key, arg in keys.items()
                         if key in params})
    if params:
        raise ValueError(f"unknown parameters for {kind}: {sorted(params)}")
    return out
