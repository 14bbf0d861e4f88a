"""Domains, metric tensors, jets of metrics, and derived surfaces."""

import math

import numpy as np
import pytest

from chernquad.errors import (
    DomainMismatchError,
    NonpositiveFactorError,
    PointOutsideDomainError,
    SpdViolationError,
)
from chernquad.metric import (
    MetricTensor,
    OctagonDomain,
    RectDomain,
    check_spd,
    edge_arcs,
    eval_metric_jet,
)
from chernquad.verify import _fd_jet
from chernquad.zoo import (
    conformal_surface,
    custom_surface,
    flat_torus,
    perturbed_surface,
    poincare_octagon,
    sphere,
    torus_revolution,
    twisted_surface,
)


# --- domains ---------------------------------------------------------------

def test_rect_domain_validation():
    with pytest.raises(ValueError):
        RectDomain(1.0, 0.0, 0.0, 1.0)
    dom = RectDomain(0.0, 1.0, 0.0, 2.0, periodic_v=True)
    assert not dom.fully_periodic
    assert dom.contains(0.5, 5.0)  # periodic axis accepts any finite value
    assert not dom.contains(1.5, 0.5)


def test_rect_sample_interior_respects_margins():
    dom = RectDomain(0.0, math.pi, 0.0, 2 * math.pi, periodic_v=True)
    us, vs = dom.sample_interior(np.random.default_rng(0), 500)
    assert us.min() > 0.0 and us.max() < math.pi
    assert np.all((vs >= 0.0) & (vs < 2 * math.pi))


def _vertex_shoelace(dom):
    x, y = np.array(dom.vertices).T
    return 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def test_geodesic_octagon_edges_are_orthogonal_circles():
    dom = OctagonDomain()
    arcs = edge_arcs(dom)
    assert len(arcs) == 8
    verts = dom.vertices
    for k, arc in enumerate(arcs):
        # orthogonality to the unit circle: |c|^2 = 1 + R^2
        assert arc.cu**2 + arc.cv**2 - arc.radius**2 == pytest.approx(1.0, abs=1e-12)
        # endpoints reproduce consecutive vertices
        for t, vertex in ((0.0, verts[k]), (1.0, verts[(k + 1) % 8])):
            phi = arc.phi0 + t * arc.dphi
            assert arc.cu + arc.radius * math.cos(phi) == pytest.approx(vertex[0], abs=1e-12)
            assert arc.cv + arc.radius * math.sin(phi) == pytest.approx(vertex[1], abs=1e-12)


def test_geodesic_octagon_is_strict_subset_of_chords():
    curved = OctagonDomain()
    assert curved.area() < _vertex_shoelace(curved)
    # a point just inside the chord midpoint lies between arc and chord
    (au, av), (bu, bv) = curved.vertices[0], curved.vertices[1]
    assert not curved.contains(0.99 * (au + bu) / 2, 0.99 * (av + bv) / 2)
    assert curved.contains(0.0, 0.0)
    us, vs = curved.sample_interior(np.random.default_rng(2), 200)
    for u, v in zip(us, vs):
        assert curved.contains(u, v)


def test_octagon_contains_stops_at_its_vertices():
    # along each vertex direction the region ends at the vertex radius
    # 2^(-1/4), where two edge circles meet
    dom = OctagonDomain()
    for u, v in dom.vertices:
        assert dom.contains(0.999 * u, 0.999 * v)
        assert not dom.contains(1.001 * u, 1.001 * v)


# --- tensors and surfaces ----------------------------------------------------

def test_metric_tensor_rejects_indefinite():
    with pytest.raises(SpdViolationError):
        MetricTensor(1.0, 2.0, 1.0)
    with pytest.raises(SpdViolationError):
        MetricTensor(-1.0, 0.0, 1.0)
    g = MetricTensor(4.0, 1.0, 2.0)
    assert g.det == pytest.approx(7.0)


def test_spd_check_does_not_depend_on_scale():
    with pytest.raises(SpdViolationError):
        MetricTensor(1.0, 1.0, 1.0)  # degenerate at any scale
    MetricTensor(1e-8, 0.0, 1e-8)  # det 1e-16: small, but the axes are orthogonal
    with pytest.raises(SpdViolationError):
        MetricTensor(1e8, 1e8 * (1.0 - 1e-15), 1e8)  # nearly parallel axes
    # where g11 * g22 overflows, the absolute det > SPD_TOL decides
    check_spd(np.array([np.inf, 1.0]), np.ones(2), np.array([np.inf, 1.0]))


def test_spd_error_says_when_the_chart_axes_are_nearly_parallel():
    # every g11 and det is positive; det / (g11 g22) = 2e-15 is below SPD_TOL
    with pytest.raises(SpdViolationError) as err:
        MetricTensor(1e8, 1e8 * (1.0 - 1e-15), 1e8)
    assert str(err.value) == ("metric is degenerate to working precision: the chart axes "
                              "are nearly parallel (min det/(g11*g22) 2.000e-15, bound 1e-12)")


def test_spd_error_names_the_finite_minimum_beside_a_nan():
    # dets: 1, NaN, -3; a NaN must not hide the negative determinant
    with pytest.raises(SpdViolationError) as err:
        MetricTensor(np.array([1.0, np.nan, 1.0]), np.zeros(3), np.array([1.0, 1.0, -3.0]))
    assert str(err.value) == ("metric is not positive definite (min g11 1.000e+00, "
                              "min det -3.000e+00; not finite at 1 of 3 nodes)")


def test_eval_metric_jet_checks_domain():
    surf = sphere(1.0)
    with pytest.raises(PointOutsideDomainError):
        eval_metric_jet(surf, -0.1, 0.0)
    # a non-finite point is outside every chart, periodic axes included,
    # and is rejected before numpy sees it (warnings are errors here)
    for other in (torus_revolution(2.0, 1.0), poincare_octagon()):
        for u, v in ((math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan),
                     (math.inf, 0.0), (0.0, -math.inf)):
            with pytest.raises(PointOutsideDomainError):
                eval_metric_jet(other, u, v)
    jet = eval_metric_jet(surf, math.pi / 3, 1.0)
    assert jet.value.g11 == pytest.approx(1.0)
    assert jet.value.g22 == pytest.approx(math.sin(math.pi / 3) ** 2)


def test_metric_jets_match_finite_differences():
    rng = np.random.default_rng(3)
    for surf in (sphere(1.0), torus_revolution(2.0, 1.0)):
        us, vs = surf.domain.sample_interior(rng, 25)
        for u, v in zip(us, vs):
            jet = surf.evaluator(u, v)
            for comp in ("g11", "g12", "g22"):
                got = getattr(jet, comp)
                fd = _fd_jet(lambda uu, vv, c=comp: getattr(
                    surf.evaluator(uu, vv), c).val, float(u), float(v))
                for a, b in zip((got.val, got.du, got.dv,
                                 got.duu, got.duv, got.dvv), fd):
                    assert a == pytest.approx(b, rel=1e-5, abs=1e-5)


def test_grid_evaluation_matches_pointwise():
    surf = torus_revolution(2.0, 1.0)
    us = np.array([0.3, 1.0, 4.0])
    vs = np.array([0.1, 2.0, 5.0])
    grid = surf.evaluator(us, vs)
    _ = grid.value  # MetricTensor constructor runs check_spd
    g11 = np.broadcast_to(grid.g11.val, us.shape)  # the torus' g11 is a scalar channel
    for i in range(3):
        jet = eval_metric_jet(surf, float(us[i]), float(vs[i]))
        assert g11[i] == pytest.approx(jet.g11.val, rel=1e-15)
        assert grid.g22.du[i] == pytest.approx(jet.g22.du, rel=1e-15)
    # the checked evaluation takes the arrays too, and names the first
    # point outside the chart
    assert np.array_equal(eval_metric_jet(surf, us, vs).g22.du, grid.g22.du)
    dom = OctagonDomain()
    us, vs = dom.sample_interior(np.random.default_rng(5), 6)
    us[4], vs[4] = 0.75, -0.125
    with pytest.raises(PointOutsideDomainError, match=r"point \(0\.75, -0\.125\) is outside"):
        eval_metric_jet(poincare_octagon(), us, vs)


# --- the twist -------------------------------------------------------------

def test_pullback_by_identity_is_identity():
    surf = torus_revolution(2.0, 1.0)
    pulled = twisted_surface(surf, 0.0)
    u, v = 1.1, 2.2
    a = surf.evaluator(u, v)
    b = pulled.evaluator(u, v)
    for comp in ("g11", "g12", "g22"):
        for ch in ("val", "du", "dv", "duu", "duv", "dvv"):
            assert getattr(getattr(a, comp), ch) == pytest.approx(
                getattr(getattr(b, comp), ch), abs=1e-14)


def test_pullback_linear_map_closed_form():
    # the twist by A on the flat metric diag(a^2, b^2): g11 = a^2 + (A b cos u)^2,
    # g12 = A b^2 cos u, g22 = b^2
    a, b, amp, u = 1.5, 0.5, 0.7, 0.3
    pulled = twisted_surface(flat_torus(a, b), amp)
    jet = pulled.evaluator(u, 0.4)
    assert jet.g11.val == pytest.approx(a**2 + (amp * b * math.cos(u)) ** 2)
    assert jet.g12.val == pytest.approx(amp * b**2 * math.cos(u))
    assert jet.g22.val == pytest.approx(b**2)


def test_twist_and_untwist_compose_to_identity():
    surf = torus_revolution(2.0, 1.0)
    pulled = twisted_surface(twisted_surface(surf, 0.4), -0.4)
    u, v = 0.9, 5.1
    a = surf.evaluator(u, v)
    b = pulled.evaluator(u, v)
    for comp in ("g11", "g12", "g22"):
        for ch in ("val", "du", "dv", "duu", "duv", "dvv"):
            assert getattr(getattr(a, comp), ch) == pytest.approx(
                getattr(getattr(b, comp), ch), abs=1e-12)


def test_pullback_jets_match_finite_differences():
    surf = torus_revolution(2.0, 1.0)
    pulled = twisted_surface(surf, 0.7)
    rng = np.random.default_rng(4)
    us, vs = surf.domain.sample_interior(rng, 10)
    for u, v in zip(us, vs):
        jet = pulled.evaluator(float(u), float(v))
        for comp in ("g11", "g12", "g22"):
            got = getattr(jet, comp)
            fd = _fd_jet(lambda uu, vv, c=comp: getattr(
                pulled.evaluator(uu, vv), c).val, float(u), float(v))
            for a, b in zip((got.val, got.du, got.dv, got.duu, got.duv, got.dvv), fd):
                assert a == pytest.approx(b, rel=2e-5, abs=2e-5)


# --- conformal scaling and perturbations ------------------------------------

def test_conformal_unit_factor_is_identity():
    surf = sphere(1.0)
    scaled = conformal_surface(surf, "1")
    jet = scaled.evaluator(0.7, 0.2)
    base = surf.evaluator(0.7, 0.2)
    assert jet.g11.val == base.g11.val
    assert jet.g22.duu == base.g22.duu


def test_conformal_constant_factor_scales_components():
    scaled = conformal_surface(flat_torus(1.0, 1.0), "9")
    jet = scaled.evaluator(1.0, 1.0)
    assert jet.g11.val == pytest.approx(9.0)
    assert jet.g22.val == pytest.approx(9.0)
    assert jet.g12.val == pytest.approx(0.0, abs=1e-15)


def test_conformal_rejects_nonpositive_factor():
    scaled = conformal_surface(flat_torus(1.0, 1.0), "sin(u)")
    with pytest.raises(NonpositiveFactorError):
        scaled.evaluator(4.0, 0.0)  # sin < 0 here


def test_perturbation_amplitude_zero_is_identity():
    surf = torus_revolution(2.0, 1.0)
    perturbed = perturbed_surface(surf, seed=9, amplitude=0.0)
    u, v = 2.2, 0.4
    a = surf.evaluator(u, v)
    b = perturbed.evaluator(u, v)
    for comp in ("g11", "g12", "g22"):
        assert getattr(a, comp).val == pytest.approx(getattr(b, comp).val, abs=1e-15)


def test_perturbation_is_seed_deterministic():
    surf = torus_revolution(2.0, 1.0)
    one = perturbed_surface(surf, seed=5, amplitude=0.1)
    two = perturbed_surface(surf, seed=5, amplitude=0.1)
    other = perturbed_surface(surf, seed=6, amplitude=0.1)
    jet_one = one.evaluator(1.0, 2.0)
    jet_two = two.evaluator(1.0, 2.0)
    jet_other = other.evaluator(1.0, 2.0)
    assert jet_one.g11.val == jet_two.g11.val
    assert jet_one.g11.val != jet_other.g11.val


def test_perturbation_stays_spd_on_probe_grid():
    surf = flat_torus(1.0, 1.0)
    perturbed = perturbed_surface(surf, seed=2, amplitude=0.3)
    rng = np.random.default_rng(8)
    us, vs = surf.domain.sample_interior(rng, 100)
    grid = perturbed.evaluator(us, vs)
    _ = grid.value  # MetricTensor constructor runs check_spd


def test_perturbation_requires_rectangle():
    from chernquad.zoo import poincare_octagon
    with pytest.raises(DomainMismatchError):
        perturbed_surface(poincare_octagon(), seed=1, amplitude=0.1)


# --- expression-backed surfaces ---------------------------------------------

def test_metric_field_from_expressions():
    dom = RectDomain(0.0, 2 * math.pi, 0.0, 2 * math.pi,
                     periodic_u=True, periodic_v=True)
    surf = custom_surface("custom", dom, "2 + sin(u)", "0", "1")
    jet = surf.evaluator(math.pi / 2, 0.0)
    assert jet.g11.val == pytest.approx(3.0)
    assert jet.g11.du == pytest.approx(0.0, abs=1e-15)
    assert jet.g11.duu == pytest.approx(-1.0)


def test_expression_field_spd_violation_surfaces_at_eval():
    dom = RectDomain(-1.0, 1.0, -1.0, 1.0)
    surf = custom_surface("custom", dom, "u", "0", "1")
    with pytest.raises(SpdViolationError):
        eval_metric_jet(surf, -0.5, 0.0)
