"""Curvature oracles, connection forms, the two-form, and sampled one-forms."""

import dataclasses
import math

import numpy as np
import pytest

from chernquad.chern import curvature_sample, stokes_residual
from chernquad.curvature import (
    OneForm,
    connection_difference,
    connection_form,
    curvature_report_grid,
    fd_curl,
    gauss_curvature,
)
from chernquad.errors import DomainMismatchError, PeriodicityError
from chernquad import jets
from chernquad.metric import RectDomain
from chernquad.quadrature import QuadratureSpec, build_nodes
from chernquad.zoo import (BUILTIN_KINDS, conformal_surface, custom_surface, flat_torus,
                           perturbed_surface, poincare_octagon, sphere, torus_revolution,
                           twisted_surface)


TWO_PI = 2 * math.pi


def _periodic_square():
    return RectDomain(0.0, TWO_PI, 0.0, TWO_PI, periodic_u=True, periodic_v=True)


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
        p = float(u), float(v)
        want = expected(u, v)
        assert gauss_curvature(surf, *p) == pytest.approx(want, rel=1e-9, abs=1e-9)
        assert curvature_report_grid(surf, *p).k == pytest.approx(
            want, rel=1e-9, abs=1e-9)


def test_two_curvature_routes_agree_off_oracle():
    # a metric with no closed-form K on file: both routes must still agree
    dom = _periodic_square()
    surf = custom_surface("custom", dom, "2 + sin(u)*cos(v)", "0.3*sin(u+v)", "3 + cos(u)")
    rng = np.random.default_rng(1)
    us, vs = dom.sample_interior(rng, 50)
    for u, v in zip(us, vs):
        p = float(u), float(v)
        assert gauss_curvature(surf, *p) == pytest.approx(
            curvature_report_grid(surf, *p).k, rel=1e-8, abs=1e-8)


# --- connection form and two-form ---------------------------------------------

def test_sphere_connection_form_calibration():
    # in the frame e1 = d_theta, e2 = J e1 the only nonzero coefficient is
    # b_phi = cos(theta); this pins the global sign convention.  The
    # structure equations fix the kernel's sign, and this test and the
    # sphere's two-form and Chern number pin both routes: the unit sphere
    # must give b_v = +cos(theta), two_form_coeff = +sin(theta) and Chern
    # number +2 for the chart orientation du^dv
    surf = sphere(1.0)
    theta = math.pi / 3
    form = connection_form(surf, theta, 1.0)
    assert form.b_u == pytest.approx(0.0, abs=1e-13)
    assert form.b_v == pytest.approx(math.cos(theta), rel=1e-12)
    assert abs(form.alpha_u) < 1e-13 and abs(form.alpha_v) < 1e-13


def test_two_form_matches_k_times_area_pointwise():
    for surf in (sphere(1.5), torus_revolution(2.0, 1.0), poincare_octagon()):
        rng = np.random.default_rng(3)
        us, vs = surf.domain.sample_interior(rng, 40)
        for u, v in zip(us, vs):
            rep = curvature_report_grid(surf, float(u), float(v))
            assert rep.identity_residual() < 1e-10
            assert rep.two_form_coeff == pytest.approx(
                rep.k * rep.area_coeff, rel=1e-9, abs=1e-12)


def test_grid_report_matches_pointwise_report():
    surf = torus_revolution(2.0, 1.0)
    us = np.array([0.2, 1.0, 3.3])
    vs = np.array([0.7, 2.0, 4.1])
    grid = curvature_report_grid(surf, us, vs)
    for i in range(3):
        single = curvature_report_grid(surf, float(us[i]), float(vs[i]))
        assert grid.k[i] == pytest.approx(single.k, rel=1e-14)
        assert grid.two_form_coeff[i] == pytest.approx(single.two_form_coeff, rel=1e-13)


def test_conformal_flat_metric_curvature_closed_form():
    # g = e^(2 lam) I has K sqrt(det g) = -(lam_uu + lam_vv); with
    # lam = 0.2 sin(u) + 0.1 cos(2 v) the laplacian is explicit
    dom = _periodic_square()
    flat = custom_surface("flat", dom, "1", "0", "1")
    surf = conformal_surface(flat, "exp(2*(0.2*sin(u) + 0.1*cos(2*v)))")
    rng = np.random.default_rng(4)
    us, vs = dom.sample_interior(rng, 30)
    for u, v in zip(us, vs):
        lap = -0.2 * math.sin(u) - 0.4 * math.cos(2 * v)
        rep = curvature_report_grid(surf, float(u), float(v))
        assert rep.two_form_coeff == pytest.approx(-lap, rel=1e-10, abs=1e-10)


# --- the grid kernel and the builtin coframes ----------------------------------

@pytest.mark.parametrize("radius", [1.0, 3.0])
def test_sphere_two_form_is_exact_up_to_the_poles(radius):
    # the two-form K*sqrt(det g) = sin u does not depend on R; at 256x512
    # the Gauss nodes nearest the poles have sin u ~ 7e-5, where the
    # metric-jet route loses about 1/sin^2 u of its accuracy
    mpmath = pytest.importorskip("mpmath")
    sample = curvature_sample(sphere(radius), QuadratureSpec(256, 512))
    assert sample.two_form.shape == (256, 512)
    us = sample.us[:, 0]  # the u of each row of nodes
    near = (us < 0.05) | (us > math.pi - 0.05)
    assert near.any()
    eps = np.finfo(float).eps
    with mpmath.workdps(50):
        for u, row in zip(us[near], sample.two_form[near]):
            want = float(mpmath.sin(mpmath.mpf(float(u))))
            err = float(np.max(np.abs(row - want)))
            assert err <= 4.0 * eps * abs(want), (u, err)


@pytest.mark.parametrize("make", [
    *(constructor for constructor, _ in BUILTIN_KINDS.values()),
    lambda: sphere(3.0), lambda: torus_revolution(3.0, 0.5), lambda: flat_torus(1.0, 2.0),
], ids=[*BUILTIN_KINDS, "sphere_R3", "thin_torus", "flat_torus_1x2"])
def test_builtin_coframe_reproduces_its_metric(make):
    surf = make()
    us, vs = surf.domain.sample_interior(np.random.default_rng(8), 40)
    mjet = surf.evaluator(us, vs)
    assert mjet.coframe is not None
    a, c, d = mjet.coframe
    # a^2 = E, a*c = F, c^2 + d^2 = G through second derivatives
    for got, want in ((a * a, mjet.g11), (a * c, mjet.g12), (c * c + d * d, mjet.g22)):
        for channel in ("val", "du", "dv", "duu", "duv", "dvv"):
            x = np.broadcast_to(getattr(got, channel), us.shape)
            y = np.broadcast_to(getattr(want, channel), us.shape)
            assert np.all(np.abs(x - y) <= 1e-13 * (1.0 + np.abs(y))), channel
    # theta2 = d dv, so the exact and the Cholesky coframes share e1 = du/a
    exact = curvature_report_grid(surf, us, vs)
    twin = dataclasses.replace(surf, metric=lambda u, v: dataclasses.replace(
        surf.metric(u, v), coframe=None))
    cholesky = curvature_report_grid(twin, us, vs)
    assert np.max(np.abs(exact.b_u - cholesky.b_u)) <= 1e-13
    assert np.max(np.abs(exact.b_v - cholesky.b_v)) <= 1e-13


@pytest.mark.parametrize("make,name", [(lambda: torus_revolution(2.0, 1.0), "cos"),
                                       (lambda: sphere(1.0), "sin")],
                         ids=["torus", "sphere"])
def test_builtin_metric_and_coframe_share_one_evaluation(make, name, monkeypatch):
    # the coframe rides on the metric jet, so a grid call takes the
    # trigonometric jet of u once, not once for the metric and once more
    # for its coframe
    surf = make()
    calls = []
    original = getattr(jets, name)

    def counting(x):
        calls.append(x)
        return original(x)

    monkeypatch.setattr(jets, name, counting)
    curvature_report_grid(surf, np.array([0.5, 1.0, 2.0]), np.array([0.0, 1.0, 3.0]))
    assert len(calls) == 1


def test_derived_and_expression_fields_carry_no_coframe():
    surfaces = [custom_surface("custom", _periodic_square(), "2 + sin(u)", "0", "1")]
    for kind in ("sphere", "torus_revolution", "flat_torus"):
        base = BUILTIN_KINDS[kind][0]()
        surfaces += [conformal_surface(base, "exp(0.6*sin(u))"),
                     perturbed_surface(base, 1, 0.1),
                     twisted_surface(base, 0.3)]
    us, vs = np.array([0.5, 1.0, 2.0]), np.array([0.0, 1.0, 3.0])
    for surf in surfaces:
        assert surf.evaluator(us, vs).coframe is None


# --- connection differences ---------------------------------------------------

def test_connection_difference_requires_matching_periodic_charts():
    torus = torus_revolution(2.0, 1.0)
    shifted_chart = RectDomain(0.0, math.pi, 0.0, TWO_PI,
                               periodic_u=True, periodic_v=True)
    other = custom_surface("other", shifted_chart, "1", "0", "1")
    spec = QuadratureSpec(16, 16)
    torus_sample = curvature_sample(torus, spec)
    with pytest.raises(DomainMismatchError):
        connection_difference(torus_sample, curvature_sample(other, spec))
    with pytest.raises(DomainMismatchError):
        connection_difference(torus_sample, curvature_sample(torus, QuadratureSpec(16, 32)))
    cap = sphere(1.0)
    cap_sample = curvature_sample(cap, QuadratureSpec(16, 16))
    with pytest.raises(PeriodicityError):
        connection_difference(cap_sample, cap_sample)


def test_connection_difference_of_field_with_itself_vanishes():
    surf = torus_revolution(2.0, 1.0)
    sample = curvature_sample(surf, QuadratureSpec(16, 16))
    eta = connection_difference(sample, sample)
    assert np.max(np.abs(eta.eta_u)) == 0.0
    assert np.max(np.abs(eta.eta_v)) == 0.0
    assert eta.imag_max < 1e-12


def test_curl_of_connection_difference_matches_two_form_change():
    # two_form = -curl(b), so d eta = (i curv)' - (i curv) pointwise
    surf = torus_revolution(2.0, 1.0)
    scaled = conformal_surface(surf, "exp(0.3*sin(u))")
    errs = []
    for n in (64, 128, 256):
        base = curvature_sample(surf, QuadratureSpec(n, n))
        other = curvature_sample(scaled, QuadratureSpec(n, n))
        eta = connection_difference(base, other)
        assert eta.imag_max < 1e-12
        assert eta.eta_u.shape == eta.eta_v.shape == (n, n)
        want = other.two_form - base.two_form
        errs.append(np.max(np.abs(fd_curl(eta, surf.domain) - want)))
    assert errs[-1] < 1e-4
    # central differences are second order: each doubling divides by ~4
    assert errs[0] / errs[1] > 3.0 and errs[1] / errs[2] > 3.0


def _grid(dom, n_u, n_v):
    """u and v on the nodes of the chart, broadcast to (n_u, n_v) arrays."""
    us, vs, _ = build_nodes(dom, QuadratureSpec(n_u, n_v))
    return np.broadcast_arrays(us, vs)


def test_exact_one_form_has_zero_curl():
    # d(sin u cos v): on a square grid both central differences carry the
    # same factor sin(h)/h, so the curl cancels to rounding
    dom = _periodic_square()
    u, v = _grid(dom, 64, 64)
    form = OneForm(eta_u=np.cos(u) * np.cos(v), eta_v=-np.sin(u) * np.sin(v))
    assert np.max(np.abs(fd_curl(form, dom))) < 1e-3


def _sinc(x):
    return math.sin(x) / x


# a 2pi x 4pi chart at 64 x 32 nodes: the steps are 2pi/64 and 4pi/32, so a
# swapped n_u and n_v would take both steps wrong by a factor of 2
_WIDE = RectDomain(0.0, TWO_PI, 0.0, 2 * TWO_PI, periodic_u=True, periodic_v=True)
_H_U, _H_V = TWO_PI / 64, 2 * TWO_PI / 32


def test_fd_curl_of_gradient_on_a_non_square_grid():
    # d(sin u cos(v/2)): the central differences of the two components carry
    # sinc(h_u) and sinc(h_v/2), so the curl is exactly
    # -cos u sin(v/2) (sinc(h_u) - sinc(h_v/2)) / 2, the truncation error
    u, v = _grid(_WIDE, 64, 32)
    form = OneForm(eta_u=np.cos(u) * np.cos(v / 2), eta_v=-0.5 * np.sin(u) * np.sin(v / 2))
    curl = fd_curl(form, _WIDE)
    gap = _sinc(_H_U) - _sinc(_H_V / 2)
    assert np.max(np.abs(curl)) <= 0.5 * abs(gap) + 1e-14
    assert np.max(np.abs(curl + 0.5 * np.cos(u) * np.sin(v / 2) * gap)) < 1e-13
    assert stokes_residual(form, _WIDE) < 1e-10


def test_fd_curl_of_a_non_closed_form_on_a_non_square_grid():
    # eta = (sin(v/2), sin u) has d eta = (cos u - cos(v/2)/2) du^dv; the
    # central differences read it as cos u sinc(h_u) - cos(v/2) sinc(h_v/2) / 2
    u, v = _grid(_WIDE, 64, 32)
    curl = fd_curl(OneForm(eta_u=np.sin(v / 2), eta_v=np.sin(u)), _WIDE)
    want = np.cos(u) * _sinc(_H_U) - 0.5 * np.cos(v / 2) * _sinc(_H_V / 2)
    assert np.max(np.abs(curl - want)) < 1e-13
    assert np.max(np.abs(curl - (np.cos(u) - 0.5 * np.cos(v / 2)))) < 1e-2
