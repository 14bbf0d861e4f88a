"""Chern numbers by quadrature and the discrete Stokes argument."""

import math

import numpy as np
import pytest

from chernquad import jets
from chernquad.chern import ChernResult, chern_number, curvature_sample, stokes_residual
from chernquad.curvature import connection_difference, exact_one_form
from chernquad.errors import PeriodicityError
from chernquad.metric import (
    RectDomain,
    conformal_scale,
    perturb_metric,
    pullback_metric,
    scalar_field_from_expression,
    twist_map,
)
from chernquad.quadrature import QuadratureSpec
from chernquad.zoo import flat_torus, poincare_octagon, sphere, torus_revolution


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
    coarse = chern_number(surf, QuadratureSpec.for_domain(surf.domain, 16, 32))
    fine = chern_number(surf, QuadratureSpec.for_domain(surf.domain, 64, 128))
    assert fine.residual <= coarse.residual
    assert fine.residual < 1e-8


def test_octagon_residual_decays_fast_under_doubling():
    surf = poincare_octagon()
    res = [chern_number(surf, QuadratureSpec(n, n)).residual for n in (8, 16)]
    assert res[0] / max(res[1], 1e-300) >= 4.0


def test_result_flags_non_convergence_at_starved_resolution():
    surf = sphere(1.0)
    starved = chern_number(surf, QuadratureSpec.for_domain(surf.domain, 8, 8))
    fine = chern_number(surf, QuadratureSpec.for_domain(surf.domain, 64, 128))
    assert isinstance(starved, ChernResult)
    assert fine.converged
    if not starved.converged:
        assert starved.residual >= 0.01


def test_chern_number_is_metric_independent():
    surf = torus_revolution(2.0, 1.0)
    spec = QuadratureSpec.for_domain(surf.domain, 128, 128)
    base = chern_number(surf, spec)
    variants = [
        conformal_scale(surf.field, scalar_field_from_expression("exp(0.6*sin(u))")),
        perturb_metric(surf.field, seed=1, amplitude=0.1),
        pullback_metric(twist_map(0.3), surf.field),
    ]
    for field in variants:
        other = chern_number(_dup(surf, field), spec)
        assert other.rounded == base.rounded == 0
        assert abs(other.raw - base.raw) < 1e-6


def test_stokes_residual_of_connection_difference_vanishes():
    surf = torus_revolution(2.0, 1.0)
    scaled = conformal_scale(surf.field, scalar_field_from_expression("exp(0.6*sin(u))"))
    spec = QuadratureSpec.for_domain(surf.domain, 128, 128)
    eta = connection_difference(curvature_sample(surf.field, spec),
                                curvature_sample(scaled, spec))
    assert stokes_residual(eta, surf) < 1e-10
    assert eta.imag_max < 1e-12


def test_stokes_residual_of_exact_form_vanishes():
    dom = RectDomain(0.0, 2 * math.pi, 0.0, 2 * math.pi,
                     periodic_u=True, periodic_v=True)
    form = exact_one_form(dom, lambda u, v: jets.sin(u) * jets.cos(v), 64, 64)
    assert stokes_residual(form, dom) < 1e-10


def test_stokes_residual_rejects_nonperiodic_charts():
    surf = sphere(1.0)  # periodic in v only
    dom = RectDomain(0.0, 2 * math.pi, 0.0, 2 * math.pi, periodic_v=True)
    form = exact_one_form(
        RectDomain(0.0, 2 * math.pi, 0.0, 2 * math.pi,
                   periodic_u=True, periodic_v=True),
        lambda u, v: jets.sin(u), 16, 16)
    with pytest.raises(PeriodicityError):
        stokes_residual(form, surf)
    with pytest.raises(PeriodicityError):
        stokes_residual(form, dom)


def test_two_integration_routes_share_the_integral():
    # the connection route and K*area route are independent pipelines;
    # their raw integrals agree to rounding on every zoo surface
    for surf in (sphere(2.0), torus_revolution(3.0, 1.0), poincare_octagon()):
        result = chern_number(surf)
        assert result.raw == pytest.approx(result.raw_gauss, abs=1e-9)
