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
    regular hyperbolic octagon (interior angles pi/4) in the unit-disk
    chart with g = 4 / (1 - u^2 - v^2)^2 * I; K = -1; hyperbolic area
    4*pi; Chern -2.

Each builtin field also supplies its coframe theta1 = a du + c dv,
theta2 = d dv in closed form (see ``MetricField``): a = R, c = 0,
d = R sin u for the sphere; a = r, c = 0, d = R + r cos u for the torus;
constant a, d and c = 0 for the flat torus; a = d = 2 / (1 - u^2 - v^2),
c = 0 for the octagon.  theta2 has no du term, so e1 = du/a is the frame
of the Cholesky coframe that derived and custom fields get.  The
curvature kernel's two-form then never takes a square root of a metric
jet, and the sphere's stays accurate to rounding up to the poles.
Constant metric and coframe components are scalar-channel jets such as
``Jet2(r * r)``, which the kernel broadcasts over the nodes.

``BUILTIN_KINDS`` is the one table of these kinds: it maps each to its
constructor and its parameter keys, and drives ``make_surface``, the
``[surface]`` key check of configs and ``chernquad list``.  Parameter
defaults live only in the constructor signatures.  ``conformal_surface``,
``perturbed_surface`` and ``twisted_surface`` (the pullback by
``metric.twist_metric``) derive the second metric of a ``compare`` run
from a surface; they set no coframe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np
from scipy.optimize import brentq

from . import jets
from .jets import Jet2
from .metric import (
    MetricField,
    MetricJet,
    ParamDomain,
    Point2,
    PolygonDomain,
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


def sphere(radius: float = 1.0) -> Surface:
    if radius <= 0:
        raise ValueError("sphere radius must be positive")
    r2 = radius * radius
    domain = RectDomain(0.0, math.pi, 0.0, TWO_PI, periodic_u=False, periodic_v=True)

    def evaluator(u, v):
        s = jets.sin(jets.var_u(u))
        return MetricJet(Jet2(r2), Jet2(0.0), r2 * s * s)

    def coframe(u, v):
        return Jet2(radius), Jet2(0.0), radius * jets.sin(jets.var_u(u))

    field = MetricField(domain=domain, evaluator=evaluator, coframe=coframe)
    return Surface(name=f"sphere(R={radius:g})", field=field, expected_chern=2,
                   analytic_k=lambda u, v: np.broadcast_to(1.0 / r2, np.shape(u)),
                   reference_resolution=(64, 128))


def torus_revolution(big_radius: float = 2.0, small_radius: float = 1.0) -> Surface:
    if not big_radius > small_radius > 0:
        raise ValueError("torus of revolution needs R > r > 0")
    domain = RectDomain(0.0, TWO_PI, 0.0, TWO_PI, periodic_u=True, periodic_v=True)
    r, R = small_radius, big_radius

    def evaluator(u, v):
        ring = R + r * jets.cos(jets.var_u(u))
        return MetricJet(Jet2(r * r), Jet2(0.0), ring * ring)

    def coframe(u, v):
        return Jet2(r), Jet2(0.0), R + r * jets.cos(jets.var_u(u))

    field = MetricField(domain=domain, evaluator=evaluator, coframe=coframe)
    return Surface(name=f"torus_revolution(R={R:g},r={r:g})", field=field,
                   expected_chern=0,
                   analytic_k=lambda u, v: np.cos(u) / (r * (R + r * np.cos(u))),
                   reference_resolution=(128, 128))


def flat_torus(a: float = 1.0, b: float = 1.0) -> Surface:
    if a <= 0 or b <= 0:
        raise ValueError("flat torus needs positive side scales")
    domain = RectDomain(0.0, TWO_PI, 0.0, TWO_PI, periodic_u=True, periodic_v=True)

    def evaluator(u, v):
        return MetricJet(Jet2(a * a), Jet2(0.0), Jet2(b * b))

    def coframe(u, v):
        return Jet2(a), Jet2(0.0), Jet2(b)

    field = MetricField(domain=domain, evaluator=evaluator, coframe=coframe)
    return Surface(name=f"flat_torus(a={a:g},b={b:g})", field=field, expected_chern=0,
                   analytic_k=lambda u, v: np.zeros(np.shape(u)),
                   reference_resolution=(64, 64))


def octagon_interior_angle(radius: float) -> float:
    """Interior angle of the regular hyperbolic octagon with vertices at
    Euclidean radius ``radius`` in the disk chart (curvature -1).

    Split the central isoceles triangle along its axis: the right
    hyperbolic triangle with central angle pi/8 and hypotenuse
    c = 2 artanh(radius) has vertex angle B with cot B = cosh c tan(pi/8),
    and the interior angle is 2B.
    """
    c = 2.0 * math.atanh(radius)
    return 2.0 * math.atan(1.0 / (math.cosh(c) * math.tan(math.pi / 8.0)))


def octagon_vertices() -> tuple[Point2, ...]:
    """Vertices of the regular hyperbolic octagon with angle sum 2*pi,
    found by root-finding the interior-angle condition in the vertex radius."""
    rho = brentq(lambda r: octagon_interior_angle(r) - math.pi / 4.0, 0.1, 0.99,
                 xtol=1e-15, rtol=8.9e-16)
    return tuple(
        Point2(rho * math.cos(k * math.pi / 4.0), rho * math.sin(k * math.pi / 4.0))
        for k in range(8))


def poincare_octagon() -> Surface:
    # the geodesic octagon is the true fundamental domain, whose
    # hyperbolic area 4*pi carries the Chern number -2
    domain = PolygonDomain(octagon_vertices())

    def evaluator(u, v):
        su, sv = jets.var_u(u), jets.var_v(v)
        s = 1.0 - su * su - sv * sv
        h = 4.0 / (s * s)
        return MetricJet(h, Jet2(0.0), h)

    def coframe(u, v):
        su, sv = jets.var_u(u), jets.var_v(v)
        scale = 2.0 / (1.0 - su * su - sv * sv)
        return scale, Jet2(0.0), scale

    field = MetricField(domain=domain, evaluator=evaluator, coframe=coframe)
    return Surface(name="poincare_octagon", field=field, expected_chern=-2,
                   analytic_k=lambda u, v: np.full(np.shape(u), -1.0),
                   reference_resolution=(32, 32))


def conformal_surface(base: Surface, factor_text: str) -> Surface:
    field = conformal_scale(base.field, scalar_field_from_expression(factor_text))
    return Surface(name=f"{base.name}|conformal({factor_text})", field=field,
                   expected_chern=base.expected_chern, analytic_k=None,
                   reference_resolution=base.reference_resolution)


def perturbed_surface(base: Surface, seed: int, amplitude: float) -> Surface:
    field = perturb_metric(base.field, seed, amplitude)
    return Surface(name=f"{base.name}|perturbed(seed={seed},amp={amplitude:g})",
                   field=field, expected_chern=base.expected_chern, analytic_k=None,
                   reference_resolution=base.reference_resolution)


def twisted_surface(base: Surface, amplitude: float) -> Surface:
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
