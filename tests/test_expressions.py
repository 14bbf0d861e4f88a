"""Expression grammar, positioned errors, jets vs finite differences."""

import math
import re

import numpy as np
import pytest

from chernquad import jets
from chernquad.expressions import (
    MAX_DEPTH,
    MAX_POWER,
    ExprDomainError,
    ExprSyntaxError,
    eval_jet,
    parse,
)
from chernquad.jets import Jet2
from chernquad.verify import _fd_jet, _random_expression


def _val(text, u=0.0, v=0.0):
    return eval_jet(parse(text), u, v).val


def test_poincare_density_parses():
    ast = parse("4/(1-u^2-v^2)^2")
    assert eval_jet(ast, 0.0, 0.0).val == pytest.approx(4.0)


def test_sin_squared():
    ast = parse("sin(u)*sin(u)")
    for x in (0.0, 0.3, 1.2, -2.0):
        assert eval_jet(ast, x, 0.0).val == pytest.approx(math.sin(x) ** 2, abs=1e-15)


def test_incomplete_input_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("u +")
    assert err.value.offset == 3


def test_empty_input_offset_zero():
    with pytest.raises(ExprSyntaxError) as err:
        parse("")
    assert err.value.offset == 0


@pytest.mark.parametrize("text,offset", [
    ("sin(", 4),
    ("2*)", 2),
    ("(u+v", 4),
    ("u v", 2),
    ("bogus(1)", 0),
    ("sin u", 4),
])
def test_syntax_errors_positioned(text, offset):
    with pytest.raises(ExprSyntaxError) as err:
        parse(text)
    assert err.value.offset == offset


def test_bilinear_jet_channels():
    jet = eval_jet(parse("u*v"), 2.0, 3.0)
    assert (jet.val, jet.du, jet.dv) == (6.0, 3.0, 2.0)
    assert (jet.duv, jet.duu, jet.dvv) == (1.0, 0.0, 0.0)


def test_monomial_jet_channels():
    jet = eval_jet(parse("u^2"), 3.0, 0.0)
    assert jet.du == 6.0
    assert jet.duu == 2.0


def test_exp_sin_matches_central_differences():
    ast = parse("exp(sin(u))")
    jet = eval_jet(ast, 0.7, 0.0)
    fd = _fd_jet(lambda u, v: eval_jet(ast, u, v).val, 0.7, 0.0)
    for got, ref in zip((jet.val, jet.du, jet.dv, jet.duu, jet.duv, jet.dvv), fd):
        assert got == pytest.approx(ref, rel=1e-6, abs=1e-6)


def test_precedence_and_associativity():
    assert _val("2+3*4") == 14.0
    assert _val("2-3-4") == -5.0
    assert _val("12/3/2") == 2.0
    # right-associative: 2^(3^2), not (2^3)^2 = 64; the composite exponent
    # takes the exp/log path, so exact equality is not guaranteed
    assert _val("2^3^2") == pytest.approx(512.0, rel=1e-13)
    assert _val("(2^3)^2") == 64.0
    assert _val("-2^2") == 4.0  # unary minus binds inside the base
    assert _val("2 * pi") == pytest.approx(2.0 * math.pi)
    assert _val(" 1\t+ 1 ") == 2.0


def test_negative_integer_exponent():
    assert _val("u^-2", u=2.0) == pytest.approx(0.25)
    jet = eval_jet(parse("u^-2"), 2.0, 0.0)
    assert jet.du == pytest.approx(-2.0 * 2.0 ** -3)


@pytest.mark.parametrize("text,u,v", [
    ("1/u", 0.0, 0.0),
    ("log(u)", -1.0, 0.0),
    ("log(u)", 0.0, 0.0),
    ("sqrt(u)", -2.0, 0.0),
    ("u^0.5", -1.0, 0.0),
    ("u^-1", 0.0, 0.0),
])
def test_domain_errors(text, u, v):
    with pytest.raises(ExprDomainError):
        eval_jet(parse(text), u, v)


def test_domain_error_carries_offset():
    with pytest.raises(ExprDomainError) as err:
        eval_jet(parse("1 + 1/u"), 0.0, 0.0)
    assert err.value.offset == 5  # the '/' operator


def test_non_integer_power_requires_positive_base():
    assert _val("u^0.5", u=4.0) == pytest.approx(2.0)
    with pytest.raises(ExprDomainError):
        eval_jet(parse("u^v"), -1.0, 0.5)


def test_vectorized_evaluation():
    us = np.linspace(0.1, 2.0, 9)
    jet = eval_jet(parse("sin(u)*v + u^2"), us, 3.0)
    np.testing.assert_allclose(jet.val, np.sin(us) * 3.0 + us**2, rtol=1e-15)
    np.testing.assert_allclose(jet.du, np.cos(us) * 3.0 + 2 * us, rtol=1e-14)


def _mirror(text):
    """Swap the roles of u and v in the text."""
    return re.sub(r"\b[uv]\b", lambda m: "v" if m.group() == "u" else "u", text)


def test_clairaut_symmetry_under_variable_swap():
    """With f~(u, v) := f(v, u), the mixed channel obeys
    d_uv f~ (x, y) == d_uv f (y, x); both sides run structurally
    different evaluation paths through the same channel."""
    rng = np.random.default_rng(11)
    for _ in range(100):
        text = _random_expression(rng, depth=3)
        expr = parse(text)
        mirrored = parse(_mirror(text))
        x, y = float(rng.uniform(-1.2, 1.2)), float(rng.uniform(-1.2, 1.2))
        lhs = eval_jet(mirrored, x, y)
        rhs = eval_jet(expr, y, x)
        assert lhs.duv == pytest.approx(rhs.duv, abs=1e-12 * (1 + abs(rhs.duv)))
        assert lhs.val == pytest.approx(rhs.val, abs=1e-15 * (1 + abs(rhs.val)))
        assert lhs.duu == pytest.approx(rhs.dvv, abs=1e-12 * (1 + abs(rhs.dvv)))


def test_jets_match_finite_differences_sample():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        text = _random_expression(rng, depth=3)
        ast = parse(text)
        u = float(rng.uniform(-1.5, 1.5))
        v = float(rng.uniform(-1.5, 1.5))
        jet = eval_jet(ast, u, v)
        fd = _fd_jet(lambda uu, vv: eval_jet(ast, uu, vv).val, u, v)
        for got, ref in zip((jet.val, jet.du, jet.dv, jet.duu, jet.duv, jet.dvv), fd):
            worst = max(worst, abs(got - ref) / (1.0 + abs(ref)))
    assert worst < 1e-5


@pytest.mark.parametrize("text,value", [("u^-(2)", 0.25), ("u^(2)", 4.0), ("u^--2", 4.0)])
def test_integer_literal_exponent_survives_negation_and_parentheses(text, value):
    # at u = -2 the exp/log path would raise, so these take x ** n
    assert _val(text, u=-2.0) == value


@pytest.mark.parametrize("text,message,offset", [
    ("log(u)/(v-v)", "log of a non-positive value", 0),
    ("1/(u-u) + log(u)", "division by zero", 1),
])
def test_domain_errors_fire_in_evaluation_order(text, message, offset):
    with pytest.raises(ExprDomainError) as err:
        eval_jet(parse(text), -1.0, 0.3)
    assert (err.value.message, err.value.offset) == (message, offset)


# every production next to the jets arithmetic it must perform, in order
_PRODUCTIONS = [
    ("2.5", lambda u, v: Jet2(2.5)),
    (".5e1", lambda u, v: Jet2(5.0)),
    ("pi", lambda u, v: Jet2(math.pi)),
    ("u", lambda u, v: u),
    ("v", lambda u, v: v),
    ("-u", lambda u, v: -u),
    ("--2", lambda u, v: -(-Jet2(2.0))),
    ("u + v - 1", lambda u, v: u + v - Jet2(1.0)),
    ("u - v - 2 + u", lambda u, v: u - v - Jet2(2.0) + u),
    ("2 * u / v * 3", lambda u, v: Jet2(2.0) * u / v * Jet2(3.0)),
    ("(u + v) * (u - v)", lambda u, v: (u + v) * (u - v)),
    ("u + v*u - u/v", lambda u, v: u + v * u - u / v),
    ("u^3", lambda u, v: u ** 3),
    ("u^-2", lambda u, v: u ** -2),
    ("u^0", lambda u, v: u ** 0),
    ("u^(2)", lambda u, v: u ** 2),
    ("u^-(3)", lambda u, v: u ** -3),
    ("-u^2", lambda u, v: (-u) ** 2),
    ("v^0.5", lambda u, v: jets.exp(Jet2(0.5) * jets.log(v))),
    ("v^u", lambda u, v: jets.exp(u * jets.log(v))),
    ("v^-u", lambda u, v: jets.exp(-u * jets.log(v))),
    ("2^3^2", lambda u, v: jets.exp(Jet2(3.0) ** 2 * jets.log(Jet2(2.0)))),
    ("sin(u)", lambda u, v: jets.sin(u)),
    ("cos(u*v)", lambda u, v: jets.cos(u * v)),
    ("tan(u)", lambda u, v: jets.tan(u)),
    ("exp(-v)", lambda u, v: jets.exp(-v)),
    ("log(v + u)", lambda u, v: jets.log(v + u)),
    ("sqrt(v)", lambda u, v: jets.sqrt(v)),
    ("sinh(u)", lambda u, v: jets.sinh(u)),
    ("cosh(u - v)", lambda u, v: jets.cosh(u - v)),
]


def _channels(jet):
    return [np.asarray(ch).tobytes() for ch in
            (jet.val, jet.du, jet.dv, jet.duu, jet.duv, jet.dvv)]


@pytest.mark.parametrize("u,v", [(0.3, 0.7), (np.linspace(0.2, 1.4, 7), 0.7),
                                 (np.linspace(0.2, 1.4, 7), np.linspace(0.5, 2.0, 7))])
@pytest.mark.parametrize("text,by_hand", _PRODUCTIONS, ids=[t for t, _ in _PRODUCTIONS])
def test_every_production_matches_hand_written_jets_bit_for_bit(text, by_hand, u, v):
    expected = by_hand(jets.var_u(u), jets.var_v(v))
    assert _channels(eval_jet(parse(text), u, v)) == _channels(expected)


def test_long_chain_evaluates():
    assert _val("2" + "+0" * 4999) == 2.0
    assert _val("1" + "*2/2" * 2500) == 1.0


@pytest.mark.parametrize("opening,closing", [("(", ")"), ("sin(", ")"), ("-", ""),
                                             ("u^", "")])
def test_nesting_deeper_than_max_depth_is_a_syntax_error(opening, closing):
    n = MAX_DEPTH
    eval_jet(parse(opening * n + "u" + closing * n), 0.999, 0.0)
    with pytest.raises(ExprSyntaxError) as err:
        parse(opening * (n + 1) + "u" + closing * (n + 1))
    assert err.value.message == f"nested deeper than {MAX_DEPTH}"
    # the token that opens the level past the limit; '^' follows its base
    assert err.value.offset == len(opening) * n + (opening == "u^")


@pytest.mark.parametrize("text,offset", [
    (f"u^{MAX_POWER + 1}", 1),
    (f"u^-{MAX_POWER + 1}", 1),
    (f"u^-({MAX_POWER + 1})", 1),
    ("u^1e300", 1),
    ("(1+0*u)^100000000", 7),
])
def test_integer_exponent_beyond_max_power_is_a_syntax_error(text, offset):
    with pytest.raises(ExprSyntaxError) as err:
        parse(text)
    assert err.value.offset == offset


def test_integer_exponent_at_max_power_is_a_repeated_product():
    for n in (MAX_POWER, -MAX_POWER):
        got = eval_jet(parse(f"u^{n}"), 0.999, 0.0)
        assert _channels(got) == _channels(jets.var_u(0.999) ** n)
