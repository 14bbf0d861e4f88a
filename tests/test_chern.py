"""Chern numbers by quadrature and the discrete Stokes argument."""

import math
import tracemalloc

import numpy as np
import pytest

from chernquad import chern, quadrature, verify
from chernquad.chern import ChernResult, chern_number, curvature_sample, stokes_residual
from chernquad.curvature import (OneForm, connection_difference, connection_form,
                                 curvature_report_grid, gauss_curvature)
from chernquad.errors import NonFiniteValueError, PeriodicityError
from chernquad.metric import (
    Point2,
    RectDomain,
    conformal_scale,
    eval_metric_jet,
    perturb_metric,
    scalar_field_from_expression,
    twist_metric,
)
from chernquad.quadrature import QuadratureSpec, build_nodes
from chernquad.zoo import (custom_surface, flat_torus, perturbed_surface, poincare_octagon,
                           sphere, torus_revolution, twisted_surface)


def _dup(surface, field):
    """The same surface with a replacement metric field."""
    import dataclasses
    return dataclasses.replace(surface, field=field)


@pytest.mark.parametrize("make,expected", [
    (lambda: sphere(1.0), 2),
    (lambda: sphere(3.0), 2),
    (lambda: torus_revolution(2.0, 1.0), 0),
    (lambda: flat_torus(1.0, 2.0), 0),
    (lambda: poincare_octagon(), -2),
])
def test_reference_chern_numbers(make, expected):
    result = chern_number(make())
    assert result.rounded == expected
    assert result.converged
    assert result.residual < 1e-6
    assert result.two_path_delta < 1e-9
    assert result.max_identity_residual < 1e-9


def test_sphere_raw_value_tightens_with_resolution():
    surf = sphere(1.0)
    coarse = chern_number(surf, QuadratureSpec(16, 32))
    fine = chern_number(surf, QuadratureSpec(64, 128))
    assert fine.residual <= coarse.residual
    assert fine.residual < 1e-8


def test_octagon_residual_decays_fast_under_doubling():
    surf = poincare_octagon()
    res = [chern_number(surf, QuadratureSpec(n, n)).residual for n in (8, 16)]
    assert res[0] / max(res[1], 1e-300) >= 4.0


def test_result_flags_non_convergence_at_starved_resolution():
    surf = sphere(1.0)
    starved = chern_number(surf, QuadratureSpec(8, 8))
    fine = chern_number(surf, QuadratureSpec(64, 128))
    assert isinstance(starved, ChernResult)
    assert fine.converged
    if not starved.converged:
        assert starved.residual >= 0.01


def test_chern_number_is_metric_independent():
    surf = torus_revolution(2.0, 1.0)
    spec = QuadratureSpec(128, 128)
    base = chern_number(surf, spec)
    variants = [
        conformal_scale(surf.field, scalar_field_from_expression("exp(0.6*sin(u))")),
        perturb_metric(surf.field, seed=1, amplitude=0.1),
        twist_metric(surf.field, 0.3),
    ]
    for field in variants:
        other = chern_number(_dup(surf, field), spec)
        assert other.rounded == base.rounded == 0
        assert abs(other.raw - base.raw) < 1e-6


def test_stokes_residual_of_connection_difference_vanishes():
    surf = torus_revolution(2.0, 1.0)
    scaled = conformal_scale(surf.field, scalar_field_from_expression("exp(0.6*sin(u))"))
    spec = QuadratureSpec(128, 128)
    eta = connection_difference(curvature_sample(surf.field, spec),
                                curvature_sample(scaled, spec))
    assert stokes_residual(eta, surf.domain) < 1e-10
    assert eta.imag_max < 1e-12


def test_stokes_residual_of_exact_form_vanishes():
    # d(sin u cos v) on the 64 x 64 nodes of the periodic square
    dom = RectDomain(0.0, 2 * math.pi, 0.0, 2 * math.pi,
                     periodic_u=True, periodic_v=True)
    us, vs, _ = build_nodes(dom, QuadratureSpec(64, 64))
    u, v = us.reshape(64, 64), vs.reshape(64, 64)
    form = OneForm(eta_u=np.cos(u) * np.cos(v), eta_v=-np.sin(u) * np.sin(v))
    assert stokes_residual(form, dom) < 1e-10


def test_stokes_residual_rejects_nonperiodic_charts():
    surf = sphere(1.0)  # periodic in v only
    dom = RectDomain(0.0, 2 * math.pi, 0.0, 2 * math.pi, periodic_v=True)
    # d(sin u) on a 16 x 16 grid; the chart check comes before any value is read
    u = np.linspace(0.0, 2 * math.pi, 16, endpoint=False)[:, None]
    form = OneForm(eta_u=np.cos(u) + np.zeros((16, 16)), eta_v=np.zeros((16, 16)))
    with pytest.raises(PeriodicityError):
        stokes_residual(form, surf.domain)
    with pytest.raises(PeriodicityError):
        stokes_residual(form, dom)


def test_two_integration_routes_share_the_integral():
    # the connection route and K*area route are independent pipelines;
    # their raw integrals agree to rounding on every zoo surface
    for surf in (sphere(2.0), torus_revolution(3.0, 1.0), poincare_octagon()):
        result = chern_number(surf)
        assert result.raw == pytest.approx(result.raw_gauss, abs=1e-9)


def _generated_expression_surface():
    # a seeded verify expression inside exp(sin(.)) keeps the metric SPD
    text = f"exp(sin({verify._random_expression(np.random.default_rng(5), depth=3)}))"
    dom = RectDomain(0.0, 2 * math.pi, 0.0, 2 * math.pi,
                     periodic_u=True, periodic_v=True)
    return custom_surface("generated", dom, text, "0", "2 + sin(u) * cos(v)")


@pytest.mark.parametrize("make", [
    lambda: sphere(1.0),
    lambda: torus_revolution(2.0, 1.0),
    lambda: flat_torus(1.0, 2.0),
    poincare_octagon,
    lambda: twisted_surface(torus_revolution(2.0, 1.0), 0.3),
    lambda: perturbed_surface(torus_revolution(2.0, 1.0), 1, 0.1),
    _generated_expression_surface,
], ids=["sphere", "torus", "flat_torus", "octagon", "twisted_torus", "perturbed_torus",
        "expression"])
def test_grid_kernel_matches_the_christoffel_oracle(make):
    # the Cartan and Brioschi kernel against the Jet2 Christoffel route
    surf = make()
    us, vs = surf.domain.sample_interior(np.random.default_rng(7), 40)
    rep = curvature_report_grid(surf.field, us, vs)
    for i, (u, v) in enumerate(zip(us, vs)):
        p = Point2(float(u), float(v))
        form = connection_form(surf.field, p)
        k_area = gauss_curvature(surf.field, p) * math.sqrt(eval_metric_jet(surf.field, p).value.det)
        for got, want in ((rep.b_u[i], form.b_u), (rep.b_v[i], form.b_v),
                          (rep.two_form_coeff[i], k_area), (rep.k[i] * rep.area_coeff[i], k_area)):
            assert abs(got - want) <= 1e-12 * (1.0 + abs(want)), (u, v, got, want)


@pytest.mark.parametrize("block", [1000, 7])
@pytest.mark.parametrize("make,n_u,n_v", [
    (lambda: sphere(1.0), 24, 48),  # Gauss-Legendre u axis
    (poincare_octagon, 12, 12),  # geodesic fan nodes
    (lambda: flat_torus(1.0, 2.0), 32, 36),  # scalar channels broadcast
    (lambda: twisted_surface(torus_revolution(2.0, 1.0), 0.3), 32, 40),
    (_generated_expression_surface, 32, 36),
], ids=["sphere", "octagon", "flat_torus", "twisted_torus", "expression"])
def test_curvature_sample_is_block_invariant(make, n_u, n_v, block, monkeypatch):
    surf = make()
    spec = QuadratureSpec(n_u, n_v)
    whole = chern_number(surf, spec)
    assert whole.sample.us.size <= chern.BLOCK_NODES  # one block
    monkeypatch.setattr(chern, "BLOCK_NODES", block)
    monkeypatch.setattr(quadrature, "_SUM_CHUNK", block)
    blocked = chern_number(surf, spec)
    for name in ("raw", "raw_gauss", "max_identity_residual"):
        assert getattr(blocked, name) == getattr(whole, name), name
    assert blocked.sample.alpha_max == whole.sample.alpha_max
    assert blocked.sample.max_identity_residual == whole.sample.max_identity_residual
    for name in ("us", "vs", "weights", "two_form", "k_area", "b_u", "b_v"):
        assert np.array_equal(getattr(blocked.sample, name), getattr(whole.sample, name)), name


def test_non_finite_error_names_the_same_node_for_any_block_size(monkeypatch):
    dom = RectDomain(0.0, 1.0, 0.0, 1.0)
    surf = custom_surface("overflow", dom, "exp(800*u)", "0", "1")
    spec = QuadratureSpec(32, 40)
    messages = []
    for block in (chern.BLOCK_NODES, 1000, 7):
        monkeypatch.setattr(chern, "BLOCK_NODES", block)
        with pytest.raises(NonFiniteValueError) as info:
            curvature_sample(surf.field, spec)
        messages.append(str(info.value))
    us, vs, _ = build_nodes(dom, spec)
    with np.errstate(all="ignore"):  # one unblocked pass as the reference
        two_form = curvature_report_grid(surf.field, us, vs).two_form_coeff
    first = np.flatnonzero(~np.isfinite(two_form))[0]
    assert messages[0].endswith(f"at node (u, v) = ({us[first]:.17g}, {vs[first]:.17g})")
    assert messages == [messages[0]] * 3


def test_chern_number_memory_scales_with_the_block_not_the_grid():
    surf = torus_revolution(2.0, 1.0)
    spec = QuadratureSpec(512, 512)
    tracemalloc.start()
    try:
        result = chern_number(surf, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.rounded == 0
    # 56 B/node persist (nodes, weights and four channels);
    # an unblocked pass peaks above 1300 B/node
    assert peak / (512 * 512) < 85
