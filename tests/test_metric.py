"""Domains, metric fields, jets of metrics, and field transformations."""

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
    Point2,
    PolygonDomain,
    RectDomain,
    conformal_scale,
    edge_arcs,
    eval_metric_grid,
    eval_metric_jet,
    metric_field_from_expressions,
    perturb_metric,
    scalar_field_from_expression,
    twist_metric,
)
from chernquad.verify import _fd_jet
from chernquad.zoo import flat_torus, octagon_vertices, sphere, torus_revolution


# --- domains ---------------------------------------------------------------

def test_rect_domain_validation():
    with pytest.raises(ValueError):
        RectDomain(1.0, 0.0, 0.0, 1.0)
    dom = RectDomain(0.0, 1.0, 0.0, 2.0, periodic_v=True)
    assert not dom.fully_periodic
    assert dom.contains(Point2(0.5, 5.0))  # periodic axis accepts anything
    assert not dom.contains(Point2(1.5, 0.5))


def test_rect_sample_interior_respects_margins():
    dom = RectDomain(0.0, math.pi, 0.0, 2 * math.pi, periodic_v=True)
    us, vs = dom.sample_interior(np.random.default_rng(0), 500)
    assert us.min() > 0.0 and us.max() < math.pi
    assert np.all((vs >= 0.0) & (vs < 2 * math.pi))


def test_polygon_validation():
    with pytest.raises(ValueError):
        PolygonDomain((Point2(0, 0), Point2(1, 0)))
    with pytest.raises(ValueError):
        PolygonDomain((Point2(0, 0), Point2(2.0, 0), Point2(0, 0.5)))  # outside disk
    bowtie = (Point2(-0.5, -0.5), Point2(0.5, 0.5),
              Point2(0.5, -0.5), Point2(-0.5, 0.5))
    with pytest.raises(ValueError):
        PolygonDomain(bowtie)


def _chord_ring_area(dom, chords=4096):
    """Shoelace area of the polygon through ``chords`` points per edge arc."""
    pts = []
    for arc in edge_arcs(dom):
        phi = arc.phi0 + arc.dphi * np.linspace(0.0, 1.0, chords + 1)[:-1]
        pts.append(np.column_stack([arc.cu + arc.radius * np.cos(phi),
                                    arc.cv + arc.radius * np.sin(phi)]))
    x, y = np.concatenate(pts).T
    return 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _vertex_shoelace(dom):
    x = np.array([p.u for p in dom.vertices])
    y = np.array([p.v for p in dom.vertices])
    return 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def test_polygon_shoelace_area_and_contains():
    square = PolygonDomain((Point2(-0.5, -0.5), Point2(0.5, -0.5),
                            Point2(0.5, 0.5), Point2(-0.5, 0.5)))
    assert square.area() == pytest.approx(_chord_ring_area(square), rel=1e-6)
    assert _vertex_shoelace(square) == pytest.approx(1.0)
    assert square.area() < 1.0
    assert square.contains(Point2(0.0, 0.0))
    assert not square.contains(Point2(0.7, 0.0))
    # inside the chord u = 0.5 but outside the arc, whose nearest point
    # to the center is at u ~ 0.382
    assert not square.contains(Point2(0.45, 0.0))
    us, vs = square.sample_interior(np.random.default_rng(1), 200)
    assert np.all(np.abs(us) < 0.5) and np.all(np.abs(vs) < 0.5)


def test_geodesic_octagon_edges_are_orthogonal_circles():
    dom = PolygonDomain(octagon_vertices())
    arcs = edge_arcs(dom)
    assert len(arcs) == 8
    verts = dom.vertices
    for k, arc in enumerate(arcs):
        # orthogonality to the unit circle: |c|^2 = 1 + R^2
        assert arc.cu**2 + arc.cv**2 - arc.radius**2 == pytest.approx(1.0, abs=1e-12)
        # endpoints reproduce consecutive vertices
        for t, vertex in ((0.0, verts[k]), (1.0, verts[(k + 1) % 8])):
            phi = arc.phi0 + t * arc.dphi
            assert arc.cu + arc.radius * math.cos(phi) == pytest.approx(vertex.u, abs=1e-12)
            assert arc.cv + arc.radius * math.sin(phi) == pytest.approx(vertex.v, abs=1e-12)


def test_geodesic_octagon_is_strict_subset_of_chords():
    curved = PolygonDomain(octagon_vertices())
    assert curved.area() < _vertex_shoelace(curved)
    # a point just inside the chord midpoint lies between arc and chord
    a, b = curved.vertices[0], curved.vertices[1]
    mid = Point2(0.99 * (a.u + b.u) / 2, 0.99 * (a.v + b.v) / 2)
    assert not curved.contains(mid)
    assert curved.contains(Point2(0.0, 0.0))
    us, vs = curved.sample_interior(np.random.default_rng(2), 200)
    for u, v in zip(us, vs):
        assert curved.contains(Point2(u, v))


def test_geodesic_edge_through_center_rejected():
    with pytest.raises(ValueError):
        PolygonDomain((Point2(-0.5, 0.0), Point2(0.5, 0.0), Point2(0.0, 0.5)))


# --- tensors and fields ----------------------------------------------------

def test_metric_tensor_rejects_indefinite():
    with pytest.raises(SpdViolationError):
        MetricTensor(1.0, 2.0, 1.0)
    with pytest.raises(SpdViolationError):
        MetricTensor(-1.0, 0.0, 1.0)
    g = MetricTensor(4.0, 1.0, 2.0)
    assert g.det == pytest.approx(7.0)


def test_spd_error_names_the_finite_minimum_beside_a_nan():
    # dets: 1, NaN, -3; a NaN must not hide the negative determinant
    with pytest.raises(SpdViolationError) as err:
        MetricTensor(np.array([1.0, np.nan, 1.0]), np.zeros(3), np.array([1.0, 1.0, -3.0]))
    assert str(err.value) == ("metric is not positive definite (min g11 1.000e+00, "
                              "min det -3.000e+00; not finite at 1 of 3 nodes)")


def test_eval_metric_jet_checks_domain():
    surf = sphere(1.0)
    with pytest.raises(PointOutsideDomainError):
        eval_metric_jet(surf.field, Point2(-0.1, 0.0))
    jet = eval_metric_jet(surf.field, Point2(math.pi / 3, 1.0))
    assert jet.value.g11 == pytest.approx(1.0)
    assert jet.value.g22 == pytest.approx(math.sin(math.pi / 3) ** 2)


def test_metric_jets_match_finite_differences():
    rng = np.random.default_rng(3)
    for surf in (sphere(1.0), torus_revolution(2.0, 1.0)):
        us, vs = surf.domain.sample_interior(rng, 25)
        for u, v in zip(us, vs):
            jet = surf.field.evaluator(u, v)
            for comp in ("g11", "g12", "g22"):
                got = getattr(jet, comp)
                fd = _fd_jet(lambda uu, vv, c=comp: getattr(
                    surf.field.evaluator(uu, vv), c).val, float(u), float(v))
                for a, b in zip((got.val, got.du, got.dv,
                                 got.duu, got.duv, got.dvv), fd):
                    assert a == pytest.approx(b, rel=1e-5, abs=1e-5)


def test_grid_evaluation_matches_pointwise():
    surf = torus_revolution(2.0, 1.0)
    us = np.array([0.3, 1.0, 4.0])
    vs = np.array([0.1, 2.0, 5.0])
    grid = eval_metric_grid(surf.field, us, vs)
    g11 = np.broadcast_to(grid.g11.val, us.shape)  # the torus' g11 is a scalar channel
    for i in range(3):
        jet = eval_metric_jet(surf.field, Point2(us[i], vs[i]))
        assert g11[i] == pytest.approx(jet.g11.val, rel=1e-15)
        assert grid.g22.du[i] == pytest.approx(jet.g22.du, rel=1e-15)


# --- the twist -------------------------------------------------------------

def test_pullback_by_identity_is_identity():
    surf = torus_revolution(2.0, 1.0)
    pulled = twist_metric(surf.field, 0.0)
    u, v = 1.1, 2.2
    a = surf.field.evaluator(u, v)
    b = pulled.evaluator(u, v)
    for comp in ("g11", "g12", "g22"):
        for ch in ("val", "du", "dv", "duu", "duv", "dvv"):
            assert getattr(getattr(a, comp), ch) == pytest.approx(
                getattr(getattr(b, comp), ch), abs=1e-14)


def test_pullback_linear_map_closed_form():
    # the twist by A on the flat metric diag(a^2, b^2): g11 = a^2 + (A b cos u)^2,
    # g12 = A b^2 cos u, g22 = b^2
    a, b, amp, u = 1.5, 0.5, 0.7, 0.3
    pulled = twist_metric(flat_torus(a, b).field, amp)
    jet = pulled.evaluator(u, 0.4)
    assert jet.g11.val == pytest.approx(a**2 + (amp * b * math.cos(u)) ** 2)
    assert jet.g12.val == pytest.approx(amp * b**2 * math.cos(u))
    assert jet.g22.val == pytest.approx(b**2)


def test_twist_and_untwist_compose_to_identity():
    surf = torus_revolution(2.0, 1.0)
    pulled = twist_metric(twist_metric(surf.field, 0.4), -0.4)
    u, v = 0.9, 5.1
    a = surf.field.evaluator(u, v)
    b = pulled.evaluator(u, v)
    for comp in ("g11", "g12", "g22"):
        for ch in ("val", "du", "dv", "duu", "duv", "dvv"):
            assert getattr(getattr(a, comp), ch) == pytest.approx(
                getattr(getattr(b, comp), ch), abs=1e-12)


def test_pullback_jets_match_finite_differences():
    surf = torus_revolution(2.0, 1.0)
    pulled = twist_metric(surf.field, 0.7)
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
    scaled = conformal_scale(surf.field, scalar_field_from_expression("1"))
    jet = scaled.evaluator(0.7, 0.2)
    base = surf.field.evaluator(0.7, 0.2)
    assert jet.g11.val == base.g11.val
    assert jet.g22.duu == base.g22.duu


def test_conformal_constant_factor_scales_components():
    field = flat_torus(1.0, 1.0).field
    scaled = conformal_scale(field, scalar_field_from_expression("9"))
    jet = scaled.evaluator(1.0, 1.0)
    assert jet.g11.val == pytest.approx(9.0)
    assert jet.g22.val == pytest.approx(9.0)
    assert jet.g12.val == pytest.approx(0.0, abs=1e-15)


def test_conformal_rejects_nonpositive_factor():
    field = flat_torus(1.0, 1.0).field
    scaled = conformal_scale(field, scalar_field_from_expression("sin(u)"))
    with pytest.raises(NonpositiveFactorError):
        scaled.evaluator(4.0, 0.0)  # sin < 0 here


def test_perturbation_amplitude_zero_is_identity():
    surf = torus_revolution(2.0, 1.0)
    perturbed = perturb_metric(surf.field, seed=9, amplitude=0.0)
    u, v = 2.2, 0.4
    a = surf.field.evaluator(u, v)
    b = perturbed.evaluator(u, v)
    for comp in ("g11", "g12", "g22"):
        assert getattr(a, comp).val == pytest.approx(getattr(b, comp).val, abs=1e-15)


def test_perturbation_is_seed_deterministic():
    surf = torus_revolution(2.0, 1.0)
    one = perturb_metric(surf.field, seed=5, amplitude=0.1)
    two = perturb_metric(surf.field, seed=5, amplitude=0.1)
    other = perturb_metric(surf.field, seed=6, amplitude=0.1)
    jet_one = one.evaluator(1.0, 2.0)
    jet_two = two.evaluator(1.0, 2.0)
    jet_other = other.evaluator(1.0, 2.0)
    assert jet_one.g11.val == jet_two.g11.val
    assert jet_one.g11.val != jet_other.g11.val


def test_perturbation_stays_spd_on_probe_grid():
    surf = flat_torus(1.0, 1.0)
    perturbed = perturb_metric(surf.field, seed=2, amplitude=0.3)
    rng = np.random.default_rng(8)
    us, vs = surf.domain.sample_interior(rng, 100)
    grid = eval_metric_grid(perturbed, us, vs)
    _ = grid.value  # MetricTensor constructor re-checks SPD


def test_perturbation_requires_rectangle():
    from chernquad.zoo import poincare_octagon
    with pytest.raises(DomainMismatchError):
        perturb_metric(poincare_octagon().field, seed=1, amplitude=0.1)


# --- expression-backed fields -----------------------------------------------

def test_metric_field_from_expressions():
    dom = RectDomain(0.0, 2 * math.pi, 0.0, 2 * math.pi,
                     periodic_u=True, periodic_v=True)
    field = metric_field_from_expressions(dom, "2 + sin(u)", "0", "1")
    jet = field.evaluator(math.pi / 2, 0.0)
    assert jet.g11.val == pytest.approx(3.0)
    assert jet.g11.du == pytest.approx(0.0, abs=1e-15)
    assert jet.g11.duu == pytest.approx(-1.0)


def test_expression_field_spd_violation_surfaces_at_eval():
    dom = RectDomain(-1.0, 1.0, -1.0, 1.0)
    field = metric_field_from_expressions(dom, "u", "0", "1")
    with pytest.raises(SpdViolationError):
        eval_metric_jet(field, Point2(-0.5, 0.0))
