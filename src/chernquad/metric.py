"""Chart domains and metric tensors with second-order jets.

A surface (``zoo.Surface``) is presented by a single chart: a parameter
domain (rectangle with optional periodic axes, or the regular geodesic
octagon of the Poincare disk) together with a ``Metric``, a smooth
field of symmetric positive-definite 2x2 matrices.  A ``Metric`` maps
the coordinate jets (u, v) to a :class:`MetricJet`, the metric
components as :class:`~chernquad.jets.Jet2` values, so downstream
curvature formulas get first and second metric derivatives exact to
rounding, and a pullback is the metric at the jets of the map.  A
builtin metric also puts its exact coframe on the jet, computed from
the same subexpressions as the metric it factors.

A point is its coordinates (u, v).  ``Surface.evaluator``, ``contains``
and ``eval_metric_jet`` take floats or arrays that broadcast together,
so one point and a grid of points cost one vectorized pass alike.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dataclass_field
from typing import TYPE_CHECKING, Callable, ClassVar, Union

import numpy as np
from numpy.random import Generator

from .errors import PointOutsideDomainError, SpdViolationError
from .jets import Channel, Jet2

if TYPE_CHECKING:
    from .zoo import Surface

SPD_TOL = 1e-12

INTERIOR_MARGIN = 0.05  # share of the chart that sample_interior keeps off its edges


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
        du, dv = self.u_max - self.u_min, self.v_max - self.v_min
        if not (du > 0.0 and dv > 0.0 and du * dv < math.inf):  # NaN fails each test
            raise ValueError("degenerate rectangle: need u_min < u_max, v_min < v_max "
                             "and a finite area")

    @property
    def fully_periodic(self) -> bool:
        return self.periodic_u and self.periodic_v

    def area(self) -> float:
        """Euclidean chart area."""
        return (self.u_max - self.u_min) * (self.v_max - self.v_min)

    def contains(self, u, v):
        """Elementwise: strictly inside a bounded axis, finite on a periodic one."""
        ok_u = np.isfinite(u) if self.periodic_u else (self.u_min < u) & (u < self.u_max)
        ok_v = np.isfinite(v) if self.periodic_v else (self.v_min < v) & (v < self.v_max)
        return ok_u & ok_v

    def sample_interior(self, rng: Generator, n: int):
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


def octagon_vertices() -> tuple[tuple[float, float], ...]:
    """Vertices of the regular hyperbolic octagon with angle sum 2*pi.  Its
    central right triangle has hypotenuse c with cosh c = cot(pi/8)
    cot(alpha/2) = 3 + 2 sqrt(2) at alpha = pi/4, so rho = tanh(c/2) = 2^(-1/4)."""
    rho = 2.0 ** -0.25
    return tuple(
        (rho * math.cos(k * math.pi / 4.0), rho * math.sin(k * math.pi / 4.0))
        for k in range(8))


@dataclass(frozen=True)
class OctagonDomain:
    """The regular geodesic octagon of the Poincare disk chart.

    Its vertices (``octagon_vertices``) lie strictly inside the unit
    disk, and its sides are not chords but the circular arcs orthogonal
    to the unit circle through consecutive vertices, i.e. hyperbolic
    geodesics.  Those arcs bow toward the disk center, so the region is a
    strict subset of the straight-edge octagon on the same vertices, and
    it is star-shaped about the vertex centroid.
    """

    vertices: ClassVar[tuple[tuple[float, float], ...]] = octagon_vertices()

    @property
    def centroid(self) -> tuple[float, float]:
        us, vs = zip(*self.vertices)
        return sum(us) / len(us), sum(vs) / len(vs)

    def _shoelace(self) -> float:
        total = 0.0
        for (au, av), (bu, bv) in zip(self.vertices, self.vertices[1:] + self.vertices[:1]):
            total += au * bv - bu * av
        return abs(total) / 2.0

    def area(self) -> float:
        """Euclidean chart area: shoelace, minus one circular segment per
        side."""
        total = self._shoelace()
        for arc in edge_arcs(self):
            phi = abs(arc.dphi)
            total -= arc.radius * arc.radius * (phi - math.sin(phi)) / 2.0
        return total

    def contains(self, u, v):
        """Elementwise strictly inside, which NaN fails: in the unit disk and
        outside every edge circle (each bounds a hyperbolic half-plane whose
        far side holds the region, and the octagon is their intersection)."""
        inside = u * u + v * v < 1.0
        for arc in edge_arcs(self):
            du, dv = u - arc.cu, v - arc.cv
            inside = inside & (du * du + dv * dv > arc.radius * arc.radius)
        return inside

    def sample_interior(self, rng: Generator, n: int):
        """Rejection-sample n points inside the octagon shrunk about its
        centroid by ``1 - INTERIOR_MARGIN``."""
        cu, cv = self.centroid
        scale = 1.0 - INTERIOR_MARGIN
        vert_us, vert_vs = zip(*self.vertices)
        lo_u, hi_u = min(vert_us), max(vert_us)
        lo_v, hi_v = min(vert_vs), max(vert_vs)
        us, vs = [], []
        while len(us) < n:
            u = rng.uniform(lo_u, hi_u)
            v = rng.uniform(lo_v, hi_v)
            # p sits in the scaled region iff its preimage under the
            # scaling about the centroid sits in the full region
            if self.contains(cu + (u - cu) / scale, cv + (v - cv) / scale):
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
def edge_arcs(domain: OctagonDomain) -> tuple[EdgeArc, ...]:
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
        (pu, pv), (qu, qv) = verts[k], verts[(k + 1) % len(verts)]
        det = 4.0 * (pu * qv - pv * qu)
        rp = pu * pu + pv * pv + 1.0
        rq = qu * qu + qv * qv + 1.0
        cu = (2.0 * qv * rp - 2.0 * pv * rq) / det
        cv = (2.0 * pu * rq - 2.0 * qu * rp) / det
        radius = math.hypot(pu - cu, pv - cv)
        phi0 = math.atan2(pv - cv, pu - cu)
        phi1 = math.atan2(qv - cv, qu - cu)
        arcs.append(EdgeArc(cu, cv, radius, phi0, math.remainder(phi1 - phi0, math.tau)))
    return tuple(arcs)


ParamDomain = Union[RectDomain, OctagonDomain]


def _finite_min(values) -> str:
    finite = np.asarray(values, dtype=float)[np.isfinite(values)]
    return f"{np.min(finite):.3e}" if finite.size else "n/a"


def check_spd(g11: Channel, g22: Channel, det: Channel) -> None:
    """Raise SpdViolationError, naming the finite minima and counting the
    non-finite nodes, unless g11 > 0 and det > SPD_TOL * g11 * g22: det over
    g11 g22 is sin^2 of the angle between the chart axes, whatever the scale.
    Where g11 g22 overflows, det > SPD_TOL decides (so inf reaches the
    curvature's non-finite check).  Where every g11 and det is finite and
    positive, the error says the chart axes are nearly parallel and gives
    the least det / (g11 g22) among the failing nodes."""
    scale = g11 * g22
    ok = det > SPD_TOL * scale
    if not np.all(ok):
        ok = ok | (~np.isfinite(scale) & (det > SPD_TOL))
    g11_positive = np.all(np.asarray(g11) > 0.0)
    if not (g11_positive and np.all(ok)):
        finite = np.isfinite(g11) & np.isfinite(det)
        bad = finite.size - np.count_nonzero(finite)
        if g11_positive and not bad and np.all(np.asarray(det) > 0.0):
            with np.errstate(divide="ignore", invalid="ignore"):
                least = np.min(np.where(ok, np.inf, det / scale))
            raise SpdViolationError(
                f"metric is degenerate to working precision: the chart axes are nearly "
                f"parallel (min det/(g11*g22) {least:.3e}, bound {SPD_TOL:.0e})")
        raise SpdViolationError(
            f"metric is not positive definite (min g11 {_finite_min(g11)}, "
            f"min det {_finite_min(det)}"
            + (f"; not finite at {bad} of {finite.size} nodes)" if bad else ")"))


@dataclass(frozen=True)
class MetricTensor:
    """Symmetric positive-definite 2x2 matrix (components, not a field).

    Components may be floats or arrays; construction runs ``check_spd``.
    """

    g11: Channel
    g12: Channel
    g22: Channel

    def __post_init__(self):
        check_spd(self.g11, self.g22, self.det)

    @property
    def det(self) -> Channel:
        return self.g11 * self.g22 - self.g12 * self.g12

    def matrix(self) -> np.ndarray:
        return np.array([[self.g11, self.g12], [self.g12, self.g22]])


@dataclass(frozen=True)
class MetricJet:
    """Metric components with their first and second chart derivatives,
    and optionally an exact coframe.

    The mixed partial is a single jet channel, so the two differentiation
    orders agree identically for closed-form metrics.

    ``coframe``, when given, holds the jets (a, c, d) of the coframe
    theta1 = a du + c dv, theta2 = d dv with a, d > 0, so that a^2 = g11,
    a*c = g12 and c^2 + d^2 = g22.  theta2 must have no du term: then
    e1 = du/a is the frame of the Cholesky coframe the curvature kernel
    builds when ``coframe`` is None, and connection forms from either
    source live in one frame.  A closed-form coframe spares the kernel
    the square roots of the metric jets, which lose accuracy where det g
    degenerates (the sphere's poles).
    """

    g11: Jet2
    g12: Jet2
    g22: Jet2
    coframe: tuple[Jet2, Jet2, Jet2] | None = dataclass_field(default=None, compare=False)

    @property
    def value(self) -> MetricTensor:
        return MetricTensor(self.g11.val, self.g12.val, self.g22.val)


Metric = Callable[[Jet2, Jet2], MetricJet]  # coordinate jets (u, v) -> metric jet


def eval_metric_jet(surface: Surface, u: Channel, v: Channel) -> MetricJet:
    """Evaluate a surface's metric at floats or arrays (u, v), with domain and
    SPD checks; the domain error names the first point outside the chart."""
    inside = surface.domain.contains(u, v)
    if not np.all(inside):
        us, vs, inside = np.broadcast_arrays(u, v, inside)
        k = np.argmin(inside)  # flat index of the first False
        raise PointOutsideDomainError(
            f"point ({us.flat[k]}, {vs.flat[k]}) is outside the chart domain")
    jet = surface.evaluator(u, v)
    jet.value  # noqa: B018 - constructing MetricTensor runs the SPD check
    return jet
