"""Chern numbers by quadrature and the discrete Stokes argument."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from chernquad import chern, cli, quadrature, verify
from chernquad.chern import ChernResult, chern_number, curvature_sample, stokes_residual
from chernquad.curvature import (OneForm, connection_difference, connection_form,
                                 curvature_report_grid, gauss_curvature)
from chernquad.errors import NonFiniteValueError, PeriodicityError, SpdViolationError
from chernquad.metric import RectDomain, eval_metric_jet
from chernquad.quadrature import QuadratureSpec, build_nodes
from chernquad.zoo import (conformal_surface, custom_surface, flat_torus, perturbed_surface,
                           poincare_octagon, sphere, torus_revolution, twisted_surface)


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


@pytest.mark.parametrize("radius", [1e-30, 1e-3, 1e-2, 1e30])
def test_sphere_chern_number_does_not_depend_on_scale(radius):
    # the SPD check compares det g with g11 * g22, not with a fixed 1e-12
    result = chern_number(sphere(radius))
    assert result.rounded == 2
    assert result.residual < 1e-6


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
        conformal_surface(surf, "exp(0.6*sin(u))"),
        perturbed_surface(surf, seed=1, amplitude=0.1),
        twisted_surface(surf, 0.3),
    ]
    for variant in variants:
        other = chern_number(variant, spec)
        assert other.rounded == base.rounded == 0
        assert abs(other.raw - base.raw) < 1e-6


def test_stokes_residual_of_connection_difference_vanishes():
    surf = torus_revolution(2.0, 1.0)
    scaled = conformal_surface(surf, "exp(0.6*sin(u))")
    spec = QuadratureSpec(128, 128)
    eta = connection_difference(curvature_sample(surf, spec),
                                curvature_sample(scaled, spec))
    assert stokes_residual(eta, surf.domain) < 1e-10
    assert eta.imag_max < 1e-12


def _span(x: np.ndarray) -> int:
    """The bytes of memory behind the view x: a zero-stride axis adds none."""
    return x.itemsize + sum((n - 1) * abs(stride) for n, stride in zip(x.shape, x.strides))


def test_connection_difference_of_compact_samples_matches_materialized_samples():
    # both metrics depend on u alone, so both samples keep n_u values per channel
    surf = torus_revolution(2.0, 1.0)
    spec = QuadratureSpec(64, 64)
    samples = [curvature_sample(s, spec)
               for s in (surf, conformal_surface(surf, "exp(0.6*sin(u))"))]
    for sample in samples:
        assert _span(sample.b_v) == 64 * sample.b_v.itemsize
    materialized = [dataclasses.replace(s, b_u=np.array(s.b_u), b_v=np.array(s.b_v))
                    for s in samples]
    eta, reference = connection_difference(*samples), connection_difference(*materialized)
    assert eta.eta_u.shape == eta.eta_v.shape == (64, 64)
    for got, want in ((eta.eta_u, reference.eta_u), (eta.eta_v, reference.eta_v)):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    got, want = (stokes_residual(form, surf.domain) for form in (eta, reference))
    assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)


def test_stokes_residual_of_exact_form_vanishes():
    # d(sin u cos v) on the 64 x 64 nodes of the periodic square
    dom = RectDomain(0.0, 2 * math.pi, 0.0, 2 * math.pi,
                     periodic_u=True, periodic_v=True)
    u, v, _ = build_nodes(dom, QuadratureSpec(64, 64))
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
    rep = curvature_report_grid(surf, us, vs)
    points = [(float(u), float(v)) for u, v in zip(us, vs)]
    for i, p in enumerate(points):
        form = connection_form(surf, *p)
        k_area = gauss_curvature(surf, *p) * math.sqrt(eval_metric_jet(surf, *p).value.det)
        for got, want in ((rep.b_u[i], form.b_u), (rep.b_v[i], form.b_v),
                          (rep.two_form_coeff[i], k_area), (rep.k[i] * rep.area_coeff[i], k_area)):
            assert abs(got - want) <= 1e-12 * (1.0 + abs(want)), (p, got, want)
    # one call on all the points gives the pointwise values bit for bit
    form, jet = connection_form(surf, us, vs), eval_metric_jet(surf, us, vs)
    calls = [(gauss_curvature(surf, us, vs), lambda p: gauss_curvature(surf, *p))]
    calls += [(getattr(form, c), lambda p, c=c: getattr(connection_form(surf, *p), c))
              for c in ("b_u", "b_v", "alpha_u", "alpha_v")]
    calls += [(getattr(jet, c).val, lambda p, c=c: getattr(eval_metric_jet(surf, *p), c).val)
              for c in ("g11", "g12", "g22")]
    for at_once, pointwise in calls:
        assert np.array_equal(np.broadcast_to(at_once, us.shape), [pointwise(p) for p in points])


@pytest.mark.parametrize("block", [1000, 20, 7])  # 7 splits every row, 20 most
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
    assert whole.sample.weights.size <= chern.BLOCK_NODES  # one block
    monkeypatch.setattr(chern, "BLOCK_NODES", block)
    monkeypatch.setattr(quadrature, "_SUM_CHUNK", block)
    sizes = []

    def counting(surface, us, vs):
        sizes.append(np.broadcast(us, vs).size)
        return curvature_report_grid(surface, us, vs)

    monkeypatch.setattr(chern, "curvature_report_grid", counting)
    blocked = chern_number(surf, spec)
    assert sum(sizes) == whole.sample.weights.size  # each node once
    assert max(sizes) <= block
    for name in ("raw", "raw_gauss", "max_identity_residual"):
        assert getattr(blocked, name) == getattr(whole, name), name
    assert blocked.sample.alpha_max == whole.sample.alpha_max
    assert blocked.sample.max_identity_residual == whole.sample.max_identity_residual
    for name in ("us", "vs", "weights", "two_form", "k_area", "b_u", "b_v"):
        assert np.array_equal(getattr(blocked.sample, name), getattr(whole.sample, name)), name


def _v_alone_surface():
    dom = RectDomain(0.0, 2 * math.pi, 0.0, 2 * math.pi, periodic_u=True, periodic_v=True)
    return custom_surface("v_alone", dom, "2 + sin(v)", "0.1*cos(v)", "2 + cos(2*v)")


# per block size, a row length that splits rows into column tiles
LONG_ROWS = {chern.BLOCK_NODES: 20000, 7: 40}


@pytest.mark.parametrize("block", [chern.BLOCK_NODES, 7])
@pytest.mark.parametrize("make,n_u,n_v,axes", [
    (lambda: torus_revolution(2.0, 1.0), 64, 64, "u"),
    (lambda: torus_revolution(2.0, 1.0), 8, None, "u"),  # rows split into column tiles
    (lambda: flat_torus(1.0, 2.0), 32, 36, ""),
    (_v_alone_surface, 9, None, "v"),  # long rows, the last row tile holds one row
    (lambda: perturbed_surface(torus_revolution(2.0, 1.0)), 32, 40, "uv"),
    (poincare_octagon, 12, 12, "uv"),
    # the twist pulls a metric in u alone back to one in u alone
    (lambda: twisted_surface(torus_revolution(2.0, 1.0), 0.3), 32, 40, "u"),
    (lambda: twisted_surface(flat_torus(1.0, 2.0), 0.3), 32, 40, "u"),
], ids=["torus", "torus_long_rows", "flat_torus", "v_alone", "perturbed", "octagon",
        "twisted_torus", "twisted_flat_torus"])
def test_each_channel_is_stored_along_exactly_the_axes_it_varies_on(make, n_u, n_v, axes,
                                                                     block, monkeypatch):
    surf = make()
    spec = QuadratureSpec(n_u, n_v or LONG_ROWS[block])
    us, vs, ws = build_nodes(surf.domain, spec)
    whole = curvature_report_grid(surf, us, vs)  # one unblocked pass as the reference
    monkeypatch.setattr(chern, "BLOCK_NODES", block)
    sample = curvature_sample(surf, spec)
    n_rows, n_cols = ws.shape
    floats = (n_rows if "u" in axes else 1) * (n_cols if "v" in axes else 1)
    for name, want in (("two_form", whole.two_form_coeff),
                       ("k_area", whole.k * whole.area_coeff),
                       ("b_u", whole.b_u), ("b_v", whole.b_v)):
        got = getattr(sample, name)
        assert _span(got) == floats * got.itemsize, name
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), name


def test_non_finite_error_names_the_same_node_for_any_block_size(monkeypatch):
    # a metric in u alone and one in v alone: channels compact along v, along u
    dom = RectDomain(0.0, 1.0, 0.0, 1.0)
    spec = QuadratureSpec(32, 40)
    us, vs, _ = build_nodes(dom, spec)
    for g11, g22 in (("exp(800*u)", "1"), ("1", "exp(800*v)")):
        surf = custom_surface("overflow", dom, g11, "0", g22)
        messages = []
        for block in (chern.BLOCK_NODES, 1000, 7):
            monkeypatch.setattr(chern, "BLOCK_NODES", block)
            with pytest.raises(NonFiniteValueError) as info:
                curvature_sample(surf, spec)
            messages.append(str(info.value))
        with np.errstate(all="ignore"):  # one unblocked pass as the reference
            two_form = curvature_report_grid(surf, us, vs).two_form_coeff
        assert two_form.shape == (32, 40)
        i, j = np.argwhere(~np.isfinite(two_form))[0]  # the first in row order
        assert messages[0].endswith(f"at node (u, v) = ({us[i, 0]:.17g}, {vs[0, j]:.17g})")
        assert messages == [messages[0]] * 3


@pytest.mark.parametrize("g11,g22,u_max,v_max,periodic_u,n,message", [
    ("1", "exp(100*u)", 1.0, 1e300, False, 64, "intermediate overflow in fsum"),
    ("1", "exp(100*u)", 1.0, 1e287, False, 64, "integer division result too large"),
    ("exp(200*sin(u))", "exp(cos(v))", 1e300, 1e7, True, 8, "-inf + inf in fsum"),
    ("1", "exp(100*u)", 1.0, 1e300, False, 8, "is -inf"),
], ids=["products_overflow", "total_overflows", "inf_minus_inf", "sum_is_inf"])
def test_an_overflowing_integral_is_a_non_finite_value_error(g11, g22, u_max, v_max,
                                                             periodic_u, n, message,
                                                             tmp_path, capsys):
    # finite channels whose Chern integral leaves the float range
    dom = RectDomain(0.0, u_max, 0.0, v_max, periodic_u=periodic_u, periodic_v=True)
    surf = custom_surface("overflow", dom, g11, "0", g22)
    with pytest.raises(NonFiniteValueError, match="^integral of curvature two-form") as info:
        chern_number(surf, QuadratureSpec(n, n))
    assert message in str(info.value)
    # through the CLI: one error line; pytest turns numpy's warnings into errors
    path = tmp_path / "overflow.cfg"
    path.write_text(f"""
[surface]
kind = custom
domain = rect
g11 = "{g11}"
g12 = "0"
g22 = "{g22}"
u_min = 0
u_max = {u_max!r}
v_min = 0
v_max = {v_max!r}
periodic_u = {periodic_u}
periodic_v = true
[quadrature]
n_u = {n}
n_v = {n}
""", encoding="utf-8")
    assert cli.main(["report", "--config", str(path)]) == 1
    assert capsys.readouterr() == ("", f"chernquad: error: {info.value}\n")


def test_torus_sample_evaluates_the_metric_once_per_u():
    # the u axis is a column, and the torus metric depends on u alone, so the
    # metric sees 64 values of u, not 64 x 64 nodes
    torus = torus_revolution(2.0, 1.0)
    shapes = []

    def metric(u, v):
        shapes.append(np.shape(u.val))
        return torus.metric(u, v)

    sample = curvature_sample(dataclasses.replace(torus, metric=metric),
                              QuadratureSpec(64, 64))
    assert shapes and all(shape[1:] == (1,) for shape in shapes)
    assert sum(math.prod(shape) for shape in shapes) <= 64
    assert sample.two_form.shape == sample.b_u.shape == (64, 64)


def test_spd_error_counts_every_node_of_the_block():
    # g22 depends on u alone and is NaN where exp(1000*u) overflows, on 6 of
    # the 16 Gauss rows; the kernel checks one value per row, but the error
    # counts the 16 x 16 nodes of the block
    surf = custom_surface("nan_rows", RectDomain(0.0, 1.0, 0.0, 1.0), "1", "0",
                          "exp(1000*u)*0+1")
    with pytest.raises(SpdViolationError) as info:
        curvature_sample(surf, QuadratureSpec(16, 16))
    assert str(info.value).endswith("; not finite at 96 of 256 nodes)")


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
    # 40 B/node persist (weights and four channels; the nodes are two axes);
    # an unblocked pass peaks above 1300 B/node
    assert peak / (512 * 512) < 85


def test_torus_sample_stores_each_distinct_value_once():
    surf = torus_revolution(2.0, 1.0)
    spec = QuadratureSpec(512, 512)
    tracemalloc.start()
    try:
        result = chern_number(surf, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.rounded == 0
    # the channels depend on u alone: each keeps n_u floats behind a grid view,
    # and the sums multiply n_u products; measured 0.48 B/node, where storing
    # the grid took 40 B/node
    assert peak / (512 * 512) < 1.0
    two_form = result.sample.two_form
    assert two_form.shape == (512, 512) and not two_form.flags.writeable
    assert _span(two_form) == 512 * two_form.itemsize
