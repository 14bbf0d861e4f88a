"""Second-order jet arithmetic against closed-form derivatives."""

import math

import numpy as np
import pytest

from chernquad import jets
from chernquad.jets import Jet2


def test_bilinear_channels():
    j = jets.var_u(2.0) * jets.var_v(3.0)
    assert j.val == 6.0
    assert j.du == 3.0
    assert j.dv == 2.0
    assert j.duv == 1.0
    assert j.duu == 0.0
    assert j.dvv == 0.0


def test_monomial_channels():
    j = jets.var_u(3.0) ** 2
    assert j.val == 9.0
    assert j.du == 6.0
    assert j.duu == 2.0


def test_seed_jets():
    u = jets.var_u(1.5)
    assert (u.val, u.du, u.dv) == (1.5, 1.0, 0.0)
    v = jets.var_v(-0.5)
    assert (v.val, v.du, v.dv) == (-0.5, 0.0, 1.0)
    c = Jet2(4.0)
    assert (c.val, c.du, c.dv, c.duu, c.duv, c.dvv) == (4.0, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_product_rule_exact():
    u, v = jets.var_u(0.7), jets.var_v(-1.2)
    f = jets.sin(u) * jets.exp(v)
    assert f.val == pytest.approx(math.sin(0.7) * math.exp(-1.2), rel=1e-15)
    assert f.du == pytest.approx(math.cos(0.7) * math.exp(-1.2), rel=1e-15)
    assert f.dv == pytest.approx(math.sin(0.7) * math.exp(-1.2), rel=1e-15)
    assert f.duu == pytest.approx(-math.sin(0.7) * math.exp(-1.2), rel=1e-15)
    assert f.duv == pytest.approx(math.cos(0.7) * math.exp(-1.2), rel=1e-15)
    assert f.dvv == pytest.approx(math.sin(0.7) * math.exp(-1.2), rel=1e-15)


def test_quotient_and_chain():
    # f = cos(u) / (2 + sin(u)); f' = -(2 sin + 1) / (2 + sin)^2 at u
    x = 0.4
    u = jets.var_u(x)
    f = jets.cos(u) / (2.0 + jets.sin(u))
    denom = 2.0 + math.sin(x)
    assert f.val == pytest.approx(math.cos(x) / denom, rel=1e-15)
    assert f.du == pytest.approx(-(2.0 * math.sin(x) + 1.0) / denom**2, rel=1e-14)


@pytest.mark.parametrize("fn,ref,dref", [
    (jets.sin, math.sin, math.cos),
    (jets.cos, math.cos, lambda x: -math.sin(x)),
    (jets.tan, math.tan, lambda x: 1.0 / math.cos(x) ** 2),
    (jets.exp, math.exp, math.exp),
    (jets.log, math.log, lambda x: 1.0 / x),
    (jets.sqrt, math.sqrt, lambda x: 0.5 / math.sqrt(x)),
    (jets.sinh, math.sinh, math.cosh),
    (jets.cosh, math.cosh, math.sinh),
])
def test_unary_functions(fn, ref, dref):
    x = 0.9
    j = fn(jets.var_u(x))
    assert j.val == pytest.approx(ref(x), rel=1e-14)
    assert j.du == pytest.approx(dref(x), rel=1e-13)
    # second derivative from first by a tight central difference of dref
    h = 1e-6
    assert j.duu == pytest.approx((dref(x + h) - dref(x - h)) / (2 * h), rel=1e-7)


def test_power_variants():
    u = jets.var_u(2.0)
    assert (u ** 3).val == 8.0
    assert (u ** 3).du == 12.0
    assert (u ** -2).val == 0.25
    assert (u ** -2).du == pytest.approx(-2.0 / 8.0)
    assert (u ** 0).val == 1.0


def test_mixed_partial_symmetric_by_construction():
    u, v = jets.var_u(0.3), jets.var_v(0.8)
    f = jets.exp(u * v) * jets.sin(u + 2.0 * v)
    g = jets.sin(u + 2.0 * v) * jets.exp(v * u)
    assert f.duv == pytest.approx(g.duv, rel=1e-15)


def test_vectorized_channels():
    us = np.linspace(0.1, 1.0, 7)
    j = jets.sin(jets.var_u(us)) * jets.var_v(2.0)
    np.testing.assert_allclose(j.val, np.sin(us) * 2.0, rtol=1e-15)
    np.testing.assert_allclose(j.du, np.cos(us) * 2.0, rtol=1e-15)
    np.testing.assert_allclose(j.dv, np.sin(us), rtol=1e-15)
    np.testing.assert_allclose(j.duu, -np.sin(us) * 2.0, rtol=1e-15)


def test_ndarray_left_operand_uses_reflected_ops():
    us = np.array([1.0, 2.0])
    j = us * jets.var_v(3.0)
    assert isinstance(j, Jet2)
    np.testing.assert_allclose(j.val, np.array([3.0, 6.0]))
    np.testing.assert_allclose(j.dv, us)
    j2 = us + jets.var_u(1.0)
    assert isinstance(j2, Jet2)
    np.testing.assert_allclose(j2.val, np.array([2.0, 3.0]))


def test_lift_rejects_junk():
    with pytest.raises(TypeError):
        jets.var_u(1.0) + "nope"


def test_partial_jet_first_order():
    # d/du of sin(u)*v: value sin'(u)*v = cos(u)*v, du channel -sin(u)*v,
    # dv channel cos(u)
    u, v = jets.var_u(0.6), jets.var_v(1.3)
    f = jets.sin(u) * v
    fu = jets.partial_jet(f, "u")
    assert fu.val == pytest.approx(math.cos(0.6) * 1.3, rel=1e-15)
    assert fu.du == pytest.approx(-math.sin(0.6) * 1.3, rel=1e-15)
    assert fu.dv == pytest.approx(math.cos(0.6), rel=1e-15)
    fv = jets.partial_jet(f, "v")
    assert fv.val == pytest.approx(math.sin(0.6), rel=1e-15)
    assert fv.du == pytest.approx(math.cos(0.6), rel=1e-15)
    assert fv.dv == 0.0


def test_partial_jet_second_channels_zeroed():
    f = jets.sin(jets.var_u(0.6)) * jets.var_v(1.3)
    fu = jets.partial_jet(f, "u")
    assert fu.duu == 0.0 and fu.duv == 0.0 and fu.dvv == 0.0
    with pytest.raises(ValueError):
        jets.partial_jet(f, "w")
