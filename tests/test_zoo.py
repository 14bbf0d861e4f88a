"""Builtin and derived surfaces, and the hyperbolic octagon geometry oracles.

The octagon's vertex radius is the closed form 2^(-1/4); the oracles
below check it from the circle geometry of the edge arcs (each interior
angle pi/4) and from Gauss-Bonnet (hyperbolic area 4*pi)."""

import dataclasses
import math

import numpy as np
import pytest

from chernquad.errors import MetricScaleError
from chernquad.metric import OctagonDomain, RectDomain, edge_arcs, octagon_vertices
from chernquad.quadrature import QuadratureSpec, build_nodes, reduce_sum
from chernquad.zoo import (
    COMPARE_MODES,
    Surface,
    conformal_surface,
    custom_surface,
    flat_torus,
    make_surface,
    poincare_octagon,
    sphere,
    torus_revolution,
)


# --- constructors and validation ---------------------------------------------

def test_parameter_validation():
    bad = [
        lambda: sphere(0.0),
        lambda: sphere(math.nan),
        lambda: sphere(math.inf),
        lambda: torus_revolution(1.0, 1.0),  # needs R > r
        lambda: torus_revolution(2.0, -1.0),
        lambda: torus_revolution(math.inf, 1.0),
        lambda: torus_revolution(math.nan, 1.0),
        lambda: torus_revolution(2.0, math.nan),
        lambda: flat_torus(0.0, 1.0),
        lambda: flat_torus(math.nan, 1.0),
        lambda: flat_torus(1.0, math.inf),
        # det^2, which the Brioschi formula divides by, leaves the float range
        lambda: sphere(1e39),
        lambda: sphere(1e-39),
        lambda: torus_revolution(1e39, 5e38),
        lambda: torus_revolution(1e-38, 0.999e-38),
        lambda: flat_torus(1e40, 1e40),
        lambda: flat_torus(1e-60, 1e-60),
    ]
    for make in bad:
        with pytest.raises(ValueError):
            make()


@pytest.mark.parametrize("make,message", [
    (lambda: sphere(1e200), "sphere(R=1e+200): metric scale R^2 = inf"),
    (lambda: sphere(1e-200), "sphere(R=1e-200): metric scale R^2 = 0"),
    (lambda: sphere(1e80), "sphere(R=1e+80): metric scale R^4 = inf"),
    (lambda: sphere(1e-80), "sphere(R=1e-80): metric scale R^4 = 9.99989e-321"),  # subnormal
    (lambda: torus_revolution(1e200, 1.0), "torus_revolution(R=1e+200,r=1): metric "
                                           "scale (R+r)^2 = inf"),
    (lambda: torus_revolution(2.0, 1e-200), "torus_revolution(R=2,r=1e-200): metric "
                                            "scale r^2 = 0"),
    (lambda: torus_revolution(1e-100, 0.5e-100), "torus_revolution(R=1e-100,r=5e-101): "
                                                 "metric scale r^2 (R-r)^2 = 0"),
    (lambda: flat_torus(1e200, 1.0), "flat_torus(a=1e+200,b=1): metric scale a^2 = inf"),
    (lambda: flat_torus(1.0, 1e-170), "flat_torus(a=1,b=1e-170): metric scale b^2 = 0"),
    (lambda: flat_torus(1e100, 1e100), "flat_torus(a=1e+100,b=1e+100): metric scale "
                                       "a^2 b^2 = inf"),
    # a conformal factor, probed before any quadrature
    (lambda: conformal_surface(torus_revolution(), "1e200"),
     "torus_revolution(R=2,r=1)|conformal(1e200): metric scale f^2 det g = inf"),
    (lambda: conformal_surface(torus_revolution(), "1e-170"),
     "torus_revolution(R=2,r=1)|conformal(1e-170): metric scale f^2 det g = 0"),
    (lambda: conformal_surface(torus_revolution(), "1e-80"),
     "torus_revolution(R=2,r=1)|conformal(1e-80): metric scale f^4 (det g)^2 = "
     "9.99989e-321"),  # subnormal
    (lambda: conformal_surface(sphere(), "exp(-92*(1 + sin(v)))"),
     "sphere(R=1)|conformal(exp(-92*(1 + sin(v)))): metric scale f^4 (det g)^2 = 0"),
], ids=["sphere_R2_over", "sphere_R2_under", "sphere_R4_over", "sphere_R4_subnormal",
        "torus_ring_over", "torus_r2_under", "torus_det_under", "flat_a2_over",
        "flat_b2_under", "flat_det_over", "conformal_over", "conformal_under",
        "conformal_det_squared_subnormal", "conformal_sphere"])
def test_parameters_whose_metric_scales_leave_the_float_range_are_rejected(make, message):
    # squares and dets past the normal floats would over- or underflow the
    # metric at every node; the error names the surface and the scale
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message + " is outside the normal float range"


def test_conformal_probe_leaves_a_base_out_of_range_to_its_own_checks():
    # det g = 1e200 (2 + sin u) squares past the floats: the probe neither
    # blames the factor nor lets numpy warn (pytest turns warnings into errors)
    dom = RectDomain(0.0, 2 * math.pi, 0.0, 2 * math.pi, periodic_u=True, periodic_v=True)
    base = custom_surface("big", dom, "1e100*(2 + sin(u))", "0", "1e100")
    assert conformal_surface(base, "2").name == "big|conformal(2)"


@pytest.mark.parametrize("factor", ["u^1024*0+1", "exp(1000*u)"], ids=["nan", "inf"])
def test_conformal_probe_rejects_a_factor_that_is_not_finite(factor):
    # u^1024 * 0 is NaN and exp(1000*u) is inf where they overflow; the
    # probe blames the factor before its sign and scale tests
    with pytest.raises(MetricScaleError) as err:
        conformal_surface(torus_revolution(), factor)
    assert str(err.value) == (f"torus_revolution(R=2,r=1)|conformal({factor}): conformal "
                              "factor is not finite on the probe grid")


def test_make_surface_dispatch_and_errors():
    surf = make_surface("sphere", {"R": 2.0})
    assert surf.name == "sphere(R=2)"
    assert make_surface("torus_revolution").name == "torus_revolution(R=2,r=1)"
    with pytest.raises(ValueError):
        make_surface("klein_bottle")
    with pytest.raises(ValueError):
        make_surface("sphere", {"radius": 2.0})
    with pytest.raises(ValueError):
        make_surface("poincare_octagon", {"R": 1.0})


def test_domain_shapes():
    assert isinstance(sphere(1.0).domain, RectDomain)
    assert sphere(1.0).domain.periodic_v and not sphere(1.0).domain.periodic_u
    assert torus_revolution(2.0, 1.0).domain.fully_periodic
    assert flat_torus(1.0, 1.0).domain.fully_periodic
    octo = poincare_octagon().domain
    assert isinstance(octo, OctagonDomain)


def test_analytic_k_fields():
    surf = torus_revolution(2.0, 1.0)
    us = np.array([0.0, math.pi])
    vs = np.zeros(2)
    k = surf.analytic_k(us, vs)
    assert k[0] == pytest.approx(1.0 / 3.0)   # outer equator
    assert k[1] == pytest.approx(-1.0)        # inner equator
    assert poincare_octagon().analytic_k(us, vs) == pytest.approx([-1.0, -1.0])
    assert sphere(2.0).analytic_k(us, vs) == pytest.approx([0.25, 0.25])


# --- octagon geometry ---------------------------------------------------------

def test_octagon_vertices_radius_and_symmetry():
    verts = octagon_vertices()
    assert len(verts) == 8
    # the angle-sum-2*pi radius has the closed form 2^(-1/4)
    rho = 2.0 ** -0.25
    for k, (u, v) in enumerate(verts):
        assert math.hypot(u, v) == pytest.approx(rho, abs=1e-12)
        angle = math.atan2(v, u) % (2 * math.pi)
        assert angle == pytest.approx((k * math.pi / 4.0) % (2 * math.pi), abs=1e-12)


def test_octagon_angle_sum_oracle():
    # independent circle-geometry oracle: measure each interior angle from
    # the edge-arc tangents meeting at the vertex
    dom = poincare_octagon().domain
    arcs = edge_arcs(dom)
    angles = []
    for k in range(8):
        arc_in, arc_out = arcs[(k - 1) % 8], arcs[k]
        phi_in = arc_in.phi0 + arc_in.dphi
        t_in = (-arc_in.radius * arc_in.dphi * math.sin(phi_in),
                arc_in.radius * arc_in.dphi * math.cos(phi_in))
        phi_out = arcs[k].phi0
        t_out = (-arc_out.radius * arc_out.dphi * math.sin(phi_out),
                 arc_out.radius * arc_out.dphi * math.cos(phi_out))
        turn = math.atan2(t_in[0] * t_out[1] - t_in[1] * t_out[0],
                          t_in[0] * t_out[0] + t_in[1] * t_out[1])
        angles.append(math.pi - turn)
    for angle in angles:
        assert angle == pytest.approx(math.pi / 4.0, abs=1e-12)
    assert sum(angles) == pytest.approx(2.0 * math.pi, abs=1e-10)


def test_octagon_hyperbolic_area_is_four_pi():
    # Gauss-Bonnet for a geodesic polygon at K = -1: area = 6*pi - angle sum;
    # the quadrature against sqrt(det g) must reproduce it
    surf = poincare_octagon()
    us, vs, ws = build_nodes(surf.domain, QuadratureSpec(32, 32))
    s = 1.0 - us**2 - vs**2
    area = reduce_sum(ws * 4.0 / (s * s))
    assert area == pytest.approx(4.0 * math.pi, abs=1e-9)


# --- reference resolutions -----------------------------------------------------

@pytest.mark.parametrize("surf,chern", [
    (sphere(1.0), 2),
    (torus_revolution(2.0, 1.0), 0),
    (flat_torus(1.0, 1.0), 0),
    (poincare_octagon(), -2),
])
def test_expected_chern_metadata(surf, chern):
    assert surf.expected_chern == chern
    n_u, n_v = surf.reference_resolution
    assert n_u >= 8 and n_v >= 8


# --- derived and expression surfaces ---------------------------------------------

def test_surface_fields():
    assert [f.name for f in dataclasses.fields(Surface)] == [
        "name", "domain", "metric", "expected_chern", "analytic_k",
        "reference_resolution"]


@pytest.mark.parametrize("mode,params,suffix", [
    ("conformal", {"factor": "exp(0.6*sin(u))"}, "|conformal(exp(0.6*sin(u)))"),
    ("perturb", {}, "|perturbed(seed=1,amp=0.1)"),
    ("perturb", {"seed": 4, "amplitude": 0.05}, "|perturbed(seed=4,amp=0.05)"),
    ("twist", {}, "|twist(0.3)"),
    ("twist", {"amplitude": -0.25}, "|twist(-0.25)"),
])
@pytest.mark.parametrize("make", [lambda: torus_revolution(3.0, 1.0),
                                  lambda: flat_torus(1.0, 2.0)], ids=["torus", "flat"])
def test_derived_surfaces_keep_the_base_chart_and_invariants(make, mode, params, suffix):
    base = make()
    constructor, _ = COMPARE_MODES[mode]
    derived = constructor(base, **params)
    assert derived.name == base.name + suffix
    assert derived.domain is base.domain
    assert derived.expected_chern == base.expected_chern
    assert derived.reference_resolution == base.reference_resolution
    assert derived.analytic_k is None
    assert derived.metric is not base.metric


def test_custom_surface_reference_resolution_follows_the_chart():
    rect = RectDomain(0.0, 1.0, 0.0, 1.0)
    for domain, n in ((rect, 64), (OctagonDomain(), 32)):
        surf = custom_surface("custom", domain, "1", "0", "1")
        assert surf.name == "custom" and surf.domain is domain
        assert surf.reference_resolution == (n, n)
        assert surf.expected_chern is None and surf.analytic_k is None


def test_custom_components_with_one_text_share_one_jet():
    # isothermal coordinates: g11 and g22 are one expression
    h = "4/(1 - u^2 - v^2)^2"
    us, vs, _ = build_nodes(OctagonDomain(), QuadratureSpec(8, 8))
    g = custom_surface("disk", OctagonDomain(), h, "0", h).evaluator(us, vs)
    assert g.g11 is g.g22 and g.g12 is not g.g11
    apart = custom_surface("disk", OctagonDomain(), h, "0", f"({h})").evaluator(us, vs)
    for name in ("val", "du", "dv", "duu", "duv", "dvv"):
        assert np.array_equal(getattr(g.g22, name), getattr(apart.g22, name))
