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

Each builtin evaluator also puts its coframe theta1 = a du + c dv,
theta2 = d dv on the metric jet it returns (see ``MetricJet``), built
from the same subexpression as the metric: a = R, c = 0, d = R sin u
for the sphere; a = r, c = 0, d = R + r cos u for the torus; constant
a, d and c = 0 for the flat torus; a = d = 2 / (1 - u^2 - v^2), c = 0
for the octagon.  theta2 has no du term, so e1 = du/a is the frame of
the Cholesky coframe that derived and custom fields get.  The
curvature kernel's two-form then never takes a square root of a metric
jet, and the sphere's stays accurate to rounding up to the poles.
Constant metric and coframe components are scalar-channel jets such as
``Jet2(r * r)``, which the kernel broadcasts over the nodes.  The
octagon's chart is ``metric.OctagonDomain``.

``BUILTIN_KINDS`` is the one table of these kinds: it maps each to its
constructor and its parameter keys, and drives ``make_surface``, the
``[surface]`` key check of configs and ``chernquad list``.  Each
builtin rejects parameters whose metric scales (the squares and the det
of its components) leave the normal float range.  ``COMPARE_MODES`` is
the same table for the second metric of a comparison, derived from a
surface by ``conformal_surface``, ``perturbed_surface`` or
``twisted_surface`` (the pullback by ``metric.twist_metric``); their
jets carry no coframe.  Parameter defaults of both tables live only in
the constructor signatures.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import jets
from .jets import Jet2
from .metric import (
    MetricField,
    MetricJet,
    OctagonDomain,
    ParamDomain,
    RectDomain,
    conformal_scale,
    metric_field_from_expressions,
    perturb_metric,
    scalar_field_from_expression,
    twist_metric,
)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Surface:
    """A named chart-with-metric plus its known invariants.

    ``expected_chern`` and ``analytic_k`` are None when unknown (custom
    fields).  ``reference_resolution`` is the (n_u, n_v) at which the
    expected Chern number is reproduced well inside the acceptance band.
    """

    name: str
    field: MetricField
    expected_chern: int | None
    analytic_k: Callable[[np.ndarray, np.ndarray], np.ndarray] | None
    reference_resolution: tuple[int, int]

    @property
    def domain(self) -> ParamDomain:
        return self.field.domain


def _check_scales(name: str, *scales: tuple[str, float]) -> None:
    """Metric scales (label, value) past the normal floats spoil every node."""
    for label, scale in scales:
        if not sys.float_info.min <= scale < math.inf:
            raise ValueError(f"{name}: metric scale {label} = {scale:g} is outside "
                             "the normal float range")


def sphere(radius: float = 1.0) -> Surface:
    if not 0.0 < radius < math.inf:
        raise ValueError("sphere radius must be positive and finite")
    r2 = radius * radius
    name = f"sphere(R={radius:g})"
    _check_scales(name, ("R^2", r2), ("R^4", r2 * r2))
    domain = RectDomain(0.0, math.pi, 0.0, TWO_PI, periodic_u=False, periodic_v=True)

    def evaluator(u, v):
        s = jets.sin(jets.var_u(u))
        return MetricJet(Jet2(r2), Jet2(0.0), r2 * s * s,
                         coframe=(Jet2(radius), Jet2(0.0), radius * s))

    field = MetricField(domain=domain, evaluator=evaluator)
    return Surface(name=name, field=field, expected_chern=2,
                   analytic_k=lambda u, v: np.broadcast_to(1.0 / r2, np.shape(u)),
                   reference_resolution=(64, 128))


def torus_revolution(big_radius: float = 2.0, small_radius: float = 1.0) -> Surface:
    if not math.inf > big_radius > small_radius > 0.0:
        raise ValueError("torus of revolution needs finite R > r > 0")
    domain = RectDomain(0.0, TWO_PI, 0.0, TWO_PI, periodic_u=True, periodic_v=True)
    r, R = small_radius, big_radius
    name = f"torus_revolution(R={R:g},r={r:g})"
    ring_min = r * (R - r)
    _check_scales(name, ("r^2", r * r), ("(R+r)^2", (R + r) * (R + r)),
                  ("r^2 (R-r)^2", ring_min * ring_min))

    def evaluator(u, v):
        ring = R + r * jets.cos(jets.var_u(u))
        return MetricJet(Jet2(r * r), Jet2(0.0), ring * ring,
                         coframe=(Jet2(r), Jet2(0.0), ring))

    field = MetricField(domain=domain, evaluator=evaluator)
    return Surface(name=name, field=field,
                   expected_chern=0,
                   analytic_k=lambda u, v: np.cos(u) / (r * (R + r * np.cos(u))),
                   reference_resolution=(128, 128))


def flat_torus(a: float = 1.0, b: float = 1.0) -> Surface:
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValueError("flat torus needs positive finite side scales")
    name = f"flat_torus(a={a:g},b={b:g})"
    _check_scales(name, ("a^2", a * a), ("b^2", b * b), ("a^2 b^2", a * a * b * b))
    domain = RectDomain(0.0, TWO_PI, 0.0, TWO_PI, periodic_u=True, periodic_v=True)

    def evaluator(u, v):
        return MetricJet(Jet2(a * a), Jet2(0.0), Jet2(b * b),
                         coframe=(Jet2(a), Jet2(0.0), Jet2(b)))

    field = MetricField(domain=domain, evaluator=evaluator)
    return Surface(name=name, field=field, expected_chern=0,
                   analytic_k=lambda u, v: np.zeros(np.shape(u)),
                   reference_resolution=(64, 64))


def poincare_octagon() -> Surface:
    # the geodesic octagon is the true fundamental domain, whose
    # hyperbolic area 4*pi carries the Chern number -2
    domain = OctagonDomain()

    def evaluator(u, v):
        su, sv = jets.var_u(u), jets.var_v(v)
        s = 1.0 - su * su - sv * sv
        h = 4.0 / (s * s)
        scale = 2.0 / s
        return MetricJet(h, Jet2(0.0), h, coframe=(scale, Jet2(0.0), scale))

    field = MetricField(domain=domain, evaluator=evaluator)
    return Surface(name="poincare_octagon", field=field, expected_chern=-2,
                   analytic_k=lambda u, v: np.full(np.shape(u), -1.0),
                   reference_resolution=(32, 32))


def conformal_surface(base: Surface, factor: str = "") -> Surface:
    if not factor:
        raise ValueError("conformal mode requires factor")
    field = conformal_scale(base.field, scalar_field_from_expression(factor))
    return Surface(name=f"{base.name}|conformal({factor})", field=field,
                   expected_chern=base.expected_chern, analytic_k=None,
                   reference_resolution=base.reference_resolution)


def perturbed_surface(base: Surface, seed: int = 1, amplitude: float = 0.1) -> Surface:
    field = perturb_metric(base.field, seed, amplitude)
    return Surface(name=f"{base.name}|perturbed(seed={seed},amp={amplitude:g})",
                   field=field, expected_chern=base.expected_chern, analytic_k=None,
                   reference_resolution=base.reference_resolution)


def twisted_surface(base: Surface, amplitude: float = 0.3) -> Surface:
    field = twist_metric(base.field, amplitude)
    return Surface(name=f"{base.name}|twist({amplitude:g})", field=field,
                   expected_chern=base.expected_chern, analytic_k=None,
                   reference_resolution=base.reference_resolution)


def custom_surface(name: str, domain: ParamDomain, g11: str, g12: str,
                   g22: str) -> Surface:
    field = metric_field_from_expressions(domain, g11, g12, g22)
    n = 64 if isinstance(domain, RectDomain) else 32
    return Surface(name=name, field=field, expected_chern=None, analytic_k=None,
                   reference_resolution=(n, n))


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
