"""Christoffels, curvature oracles, connection forms, and the two-form."""

import dataclasses
import math

import numpy as np
import pytest

from chernquad import jets
from chernquad.chern import curvature_sample
from chernquad.complex_structure import TangentVector
from chernquad.curvature import (
    christoffels,
    connection_difference,
    connection_form,
    curvature_operator,
    curvature_report_grid,
    curvature_two_form,
    exact_one_form,
    fd_curl,
    gauss_curvature,
)
from chernquad.errors import DomainMismatchError, PeriodicityError
from chernquad.metric import (
    Point2,
    RectDomain,
    conformal_scale,
    eval_metric_jet,
    metric_field_from_expressions,
    scalar_field_from_expression,
)
from chernquad.quadrature import QuadratureSpec
from chernquad.zoo import BUILTIN_KINDS, flat_torus, poincare_octagon, sphere, torus_revolution


TWO_PI = 2 * math.pi


def _periodic_square():
    return RectDomain(0.0, TWO_PI, 0.0, TWO_PI, periodic_u=True, periodic_v=True)


# --- Christoffel symbols -----------------------------------------------------

def test_sphere_christoffels_closed_form():
    # ds^2 = du^2 + sin(u)^2 dv^2: Gamma^u_vv = -sin u cos u, Gamma^v_uv = cot u
    surf = sphere(1.0)
    u = 1.1
    jet = eval_metric_jet(surf.field, Point2(u, 0.5))
    gamma = christoffels(jet).gamma
    assert gamma[0, 1, 1] == pytest.approx(-math.sin(u) * math.cos(u), rel=1e-12)
    assert gamma[1, 0, 1] == pytest.approx(math.cos(u) / math.sin(u), rel=1e-12)
    assert gamma[1, 1, 0] == gamma[1, 0, 1]  # symmetric lower pair
    assert gamma[0, 0, 0] == pytest.approx(0.0, abs=1e-14)


def test_flat_metric_christoffels_vanish():
    jet = eval_metric_jet(flat_torus(2.0, 3.0).field, Point2(1.0, 1.0))
    assert christoffels(jet).gamma == pytest.approx(np.zeros((2, 2, 2)), abs=1e-15)


# --- Gauss curvature oracles -------------------------------------------------

@pytest.mark.parametrize("make,expected", [
    (lambda: sphere(1.0), lambda u, v: 1.0),
    (lambda: sphere(2.0), lambda u, v: 0.25),
    (lambda: flat_torus(1.0, 2.0), lambda u, v: 0.0),
    (lambda: torus_revolution(2.0, 1.0),
     lambda u, v: math.cos(u) / (1.0 * (2.0 + 1.0 * math.cos(u)))),
    (lambda: poincare_octagon(), lambda u, v: -1.0),
])
def test_gauss_curvature_against_analytic(make, expected):
    surf = make()
    rng = np.random.default_rng(0)
    us, vs = surf.domain.sample_interior(rng, 30)
    for u, v in zip(us, vs):
        p = Point2(float(u), float(v))
        want = expected(u, v)
        assert gauss_curvature(surf.field, p) == pytest.approx(want, rel=1e-9, abs=1e-9)
        assert curvature_two_form(surf.field, p).k == pytest.approx(
            want, rel=1e-9, abs=1e-9)


def test_two_curvature_routes_agree_off_oracle():
    # a metric with no closed-form K on file: both routes must still agree
    dom = _periodic_square()
    field = metric_field_from_expressions(
        dom, "2 + sin(u)*cos(v)", "0.3*sin(u+v)", "3 + cos(u)")
    rng = np.random.default_rng(1)
    us, vs = dom.sample_interior(rng, 50)
    for u, v in zip(us, vs):
        p = Point2(float(u), float(v))
        assert gauss_curvature(field, p) == pytest.approx(
            curvature_two_form(field, p).k, rel=1e-8, abs=1e-8)


# --- curvature operator ------------------------------------------------------

def test_curvature_operator_symmetries():
    surf = torus_revolution(2.0, 1.0)
    p = Point2(0.8, 1.3)
    rng = np.random.default_rng(2)
    x = TangentVector(*rng.normal(size=2))
    y = TangentVector(*rng.normal(size=2))
    z = TangentVector(*rng.normal(size=2))
    rxy = curvature_operator(surf.field, p, x, y, z)
    ryx = curvature_operator(surf.field, p, y, x, z)
    assert (rxy.x1, rxy.x2) == pytest.approx((-ryx.x1, -ryx.x2), abs=1e-12)
    rxx = curvature_operator(surf.field, p, x, x, z)
    assert (rxx.x1, rxx.x2) == pytest.approx((0.0, 0.0), abs=1e-12)


def test_curvature_operator_recovers_k():
    # g(R(du, dv)dv, du) = K det g
    surf = sphere(1.0)
    p = Point2(0.9, 0.4)
    du, dv = TangentVector(1.0, 0.0), TangentVector(0.0, 1.0)
    r = curvature_operator(surf.field, p, du, dv, dv)
    jet = eval_metric_jet(surf.field, p)
    g = jet.value
    num = g.g11 * r.x1 + g.g12 * r.x2
    assert num / g.det == pytest.approx(gauss_curvature(surf.field, p), rel=1e-12)


# --- connection form and two-form ---------------------------------------------

def test_sphere_connection_form_calibration():
    # in the frame e1 = d_theta, e2 = J e1 the only nonzero coefficient is
    # b_phi = cos(theta); this pins the global sign convention
    surf = sphere(1.0)
    theta = math.pi / 3
    form = connection_form(surf.field, Point2(theta, 1.0))
    assert form.b_u == pytest.approx(0.0, abs=1e-13)
    assert form.b_v == pytest.approx(math.cos(theta), rel=1e-12)
    assert abs(form.alpha_u) < 1e-13 and abs(form.alpha_v) < 1e-13


def test_two_form_matches_k_times_area_pointwise():
    for surf in (sphere(1.5), torus_revolution(2.0, 1.0), poincare_octagon()):
        rng = np.random.default_rng(3)
        us, vs = surf.domain.sample_interior(rng, 40)
        for u, v in zip(us, vs):
            rep = curvature_two_form(surf.field, Point2(float(u), float(v)))
            assert rep.identity_residual() < 1e-10
            assert rep.two_form_coeff == pytest.approx(
                rep.k * rep.area_coeff, rel=1e-9, abs=1e-12)


def test_grid_report_matches_pointwise_report():
    surf = torus_revolution(2.0, 1.0)
    us = np.array([0.2, 1.0, 3.3])
    vs = np.array([0.7, 2.0, 4.1])
    grid = curvature_report_grid(surf.field, us, vs)
    for i in range(3):
        single = curvature_two_form(surf.field, Point2(us[i], vs[i]))
        assert grid.k[i] == pytest.approx(single.k, rel=1e-14)
        assert grid.two_form_coeff[i] == pytest.approx(single.two_form_coeff, rel=1e-13)


def test_conformal_flat_metric_curvature_closed_form():
    # g = e^(2 lam) I has K sqrt(det g) = -(lam_uu + lam_vv); with
    # lam = 0.2 sin(u) + 0.1 cos(2 v) the laplacian is explicit
    dom = _periodic_square()
    flat = metric_field_from_expressions(dom, "1", "0", "1")
    factor = scalar_field_from_expression("exp(2*(0.2*sin(u) + 0.1*cos(2*v)))")
    field = conformal_scale(flat, factor)
    rng = np.random.default_rng(4)
    us, vs = dom.sample_interior(rng, 30)
    for u, v in zip(us, vs):
        lap = -0.2 * math.sin(u) - 0.4 * math.cos(2 * v)
        rep = curvature_two_form(field, Point2(float(u), float(v)))
        assert rep.two_form_coeff == pytest.approx(-lap, rel=1e-10, abs=1e-10)


# --- the grid kernel and the builtin coframes ----------------------------------

@pytest.mark.parametrize("radius", [1.0, 3.0])
def test_sphere_two_form_is_exact_up_to_the_poles(radius):
    # the two-form K*sqrt(det g) = sin u does not depend on R; at 256x512
    # the Gauss nodes nearest the poles have sin u ~ 7e-5, where the
    # metric-jet route loses about 1/sin^2 u of its accuracy
    mpmath = pytest.importorskip("mpmath")
    sample = curvature_sample(sphere(radius).field, QuadratureSpec(256, 512))
    us, two_form = sample.us, sample.two_form
    near = (us < 0.05) | (us > math.pi - 0.05)
    assert near.any()
    eps = np.finfo(float).eps
    with mpmath.workdps(50):
        for u in np.unique(us[near]):
            want = float(mpmath.sin(mpmath.mpf(float(u))))
            err = float(np.max(np.abs(two_form[us == u] - want)))
            assert err <= 4.0 * eps * abs(want), (u, err)


@pytest.mark.parametrize("make", [
    *(constructor for constructor, _ in BUILTIN_KINDS.values()),
    lambda: sphere(3.0), lambda: torus_revolution(3.0, 0.5), lambda: flat_torus(1.0, 2.0),
], ids=[*BUILTIN_KINDS, "sphere_R3", "thin_torus", "flat_torus_1x2"])
def test_builtin_coframe_reproduces_its_metric(make):
    field = make().field
    assert field.coframe is not None
    us, vs = field.domain.sample_interior(np.random.default_rng(8), 40)
    mjet = field.evaluator(us, vs)
    a, c, d = field.coframe(us, vs)
    # a^2 = E, a*c = F, c^2 + d^2 = G through second derivatives
    for got, want in ((a * a, mjet.g11), (a * c, mjet.g12), (c * c + d * d, mjet.g22)):
        for channel in ("val", "du", "dv", "duu", "duv", "dvv"):
            x = np.broadcast_to(getattr(got, channel), us.shape)
            y = np.broadcast_to(getattr(want, channel), us.shape)
            assert np.all(np.abs(x - y) <= 1e-13 * (1.0 + np.abs(y))), channel
    # theta2 = d dv, so the exact and the Cholesky coframes share e1 = du/a
    exact = curvature_report_grid(field, us, vs)
    cholesky = curvature_report_grid(dataclasses.replace(field, coframe=None), us, vs)
    assert np.max(np.abs(exact.b_u - cholesky.b_u)) <= 1e-13
    assert np.max(np.abs(exact.b_v - cholesky.b_v)) <= 1e-13


# --- connection differences ---------------------------------------------------

def test_connection_difference_requires_matching_periodic_charts():
    torus = torus_revolution(2.0, 1.0)
    shifted_chart = RectDomain(0.0, math.pi, 0.0, TWO_PI,
                               periodic_u=True, periodic_v=True)
    other = metric_field_from_expressions(shifted_chart, "1", "0", "1")
    spec = QuadratureSpec(16, 16)
    torus_sample = curvature_sample(torus.field, spec)
    with pytest.raises(DomainMismatchError):
        connection_difference(torus_sample, curvature_sample(other, spec))
    with pytest.raises(DomainMismatchError):
        connection_difference(torus_sample, curvature_sample(torus.field, QuadratureSpec(16, 32)))
    cap = sphere(1.0)
    cap_sample = curvature_sample(cap.field, QuadratureSpec(16, 16))
    with pytest.raises(PeriodicityError):
        connection_difference(cap_sample, cap_sample)


def test_connection_difference_of_field_with_itself_vanishes():
    surf = torus_revolution(2.0, 1.0)
    sample = curvature_sample(surf.field, QuadratureSpec(16, 16))
    eta = connection_difference(sample, sample)
    assert np.max(np.abs(eta.eta_u)) == 0.0
    assert np.max(np.abs(eta.eta_v)) == 0.0
    assert eta.imag_max < 1e-12


def test_curl_of_connection_difference_matches_two_form_change():
    # two_form = -curl(b), so d eta = (i curv)' - (i curv) pointwise
    surf = torus_revolution(2.0, 1.0)
    scaled = conformal_scale(surf.field, scalar_field_from_expression("exp(0.3*sin(u))"))
    errs = []
    for n in (64, 128, 256):
        base = curvature_sample(surf.field, QuadratureSpec(n, n))
        other = curvature_sample(scaled, QuadratureSpec(n, n))
        eta = connection_difference(base, other)
        assert eta.imag_max < 1e-12
        want = (other.two_form - base.two_form).reshape(n, n)
        errs.append(np.max(np.abs(fd_curl(eta, surf.domain) - want)))
    assert errs[-1] < 1e-4
    # central differences are second order: each doubling divides by ~4
    assert errs[0] / errs[1] > 3.0 and errs[1] / errs[2] > 3.0


def test_exact_one_form_has_zero_curl():
    dom = _periodic_square()
    form = exact_one_form(dom, lambda u, v: jets.sin(u) * jets.cos(v), 64, 64)
    assert np.max(np.abs(fd_curl(form, dom))) < 1e-3
    # and the sampled components are the analytic gradient
    uu, vv = np.meshgrid(form.us, form.vs, indexing="ij")
    assert form.eta_u == pytest.approx(np.cos(uu) * np.cos(vv), abs=1e-14)
    assert form.eta_v == pytest.approx(-np.sin(uu) * np.sin(vv), abs=1e-14)
