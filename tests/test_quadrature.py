"""Node builders: positivity, measure sums, exactness, convergence."""

import math

import numpy as np
import pytest

from chernquad import quadrature
from chernquad.metric import OctagonDomain, RectDomain
from chernquad.quadrature import (
    QuadratureSpec,
    _axis_rule,
    build_nodes,
    gauss_legendre,
    reduce_sum,
)

TWO_PI = 2 * math.pi


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(4, 16)
    with pytest.raises(ValueError):
        QuadratureSpec(16, 4)


def test_for_domain_picks_rules_from_periodicity():
    # Gauss-Legendre on the closed u axis, trapezoid on the periodic v axis
    dom = RectDomain(0.0, math.pi, 0.0, TWO_PI, periodic_v=True)
    us, vs, ws = build_nodes(dom, QuadratureSpec(16, 32))
    assert (us.shape, vs.shape, ws.shape) == ((16, 1), (1, 32), (16, 32))
    assert np.array_equal(us[:, 0], _axis_rule(False, 0.0, math.pi, 16)[0])
    assert np.array_equal(vs[0], TWO_PI / 32 * np.arange(32))
    # the equal trapezoid weights make the product a zero-stride view along v
    outer = np.outer(_axis_rule(False, 0.0, math.pi, 16)[1], _axis_rule(True, 0.0, TWO_PI, 32)[1])
    assert ws.strides[1] == 0 and not ws.flags.writeable
    assert np.array_equal(ws.view(np.int64), outer.view(np.int64))


@pytest.mark.parametrize("domain", [
    RectDomain(0.0, TWO_PI, 0.0, TWO_PI, periodic_u=True, periodic_v=True),
    RectDomain(0.0, math.pi, 0.0, TWO_PI, periodic_v=True),
    OctagonDomain(),
])
def test_weights_positive_and_sum_to_measure(domain):
    spec = QuadratureSpec(16, 16)
    us, vs, ws = build_nodes(domain, spec)
    # the octagon stacks its eight sector grids
    shape = (8 * 16, 16) if isinstance(domain, OctagonDomain) else (16, 16)
    assert ws.shape == np.broadcast(us, vs).shape == shape
    assert np.all(ws > 0.0)
    measure = domain.area()
    assert reduce_sum(ws) == pytest.approx(measure, rel=1e-12)
    assert np.all(domain.contains(us, vs))
    for u, v in zip(*(np.broadcast_to(x, shape).flat[:64] for x in (us, vs))):
        assert domain.contains(float(u), float(v))


def test_trapezoid_is_spectrally_exact_for_low_harmonics():
    # int sin(u)^2 du dv over the 2 pi square = 2 pi^2, exact at any n >= 3
    dom = RectDomain(0.0, TWO_PI, 0.0, TWO_PI, periodic_u=True, periodic_v=True)
    us, vs, ws = build_nodes(dom, QuadratureSpec(16, 8))
    got = reduce_sum(np.sin(us) ** 2, ws)
    assert got == pytest.approx(2 * math.pi**2, rel=1e-12)


def test_gauss_axis_is_exact_for_polynomials():
    # degree 2n-1 exactness: u^7 over [0, 1] with n=8 gauss nodes
    dom = RectDomain(0.0, 1.0, 0.0, 1.0)
    us, vs, ws = build_nodes(dom, QuadratureSpec(8, 8))
    got = reduce_sum(us**7, ws)
    assert got == pytest.approx(1.0 / 8.0, rel=1e-14)


def _reference_gauss_legendre(mpmath, n):
    """The n-point rule on [-1, 1] to 40 digits: Newton's method on the
    recurrence in mpmath, started from numpy's ``leggauss`` nodes."""
    roots, weights = [], []
    with mpmath.workdps(40):
        for guess in np.polynomial.legendre.leggauss(n)[0][n // 2:]:
            r = mpmath.mpf(float(guess))
            for _ in range(10):
                p_prev, p = mpmath.mpf(1), r
                for k in range(1, n):
                    p_prev, p = p, ((2 * k + 1) * r * p - k * p_prev) / (k + 1)
                dp = n * (p_prev - r * p) / (1 - r * r)
                step = p / dp
                r -= step
                if abs(step) < mpmath.mpf(10) ** -30:
                    break
            roots.append(r)
            # P_n' from before the last step: relative weight error ~1e-30
            weights.append(2 / ((1 - r * r) * dp * dp))
    # nonnegative half, mirrored; an odd middle node is not repeated
    return ([-r for r in reversed(roots[n % 2:])] + roots,
            list(reversed(weights[n % 2:])) + weights)


@pytest.mark.parametrize("n", [16, 17, 32, 64, 128, 256])
def test_gauss_rule_matches_40_digit_reference(n):
    mpmath = pytest.importorskip("mpmath")
    ref_x, ref_w = _reference_gauss_legendre(mpmath, n)
    x, w = gauss_legendre(n)
    # the Gauss axes of build_nodes take this rule
    assert np.array_equal(_axis_rule(False, -1.0, 1.0, n)[1], w)
    assert np.all(w > 0.0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    with mpmath.workdps(40):
        node_err = max(abs(mpmath.mpf(float(a)) - b) for a, b in zip(x, ref_x))
        weight_err = mpmath.fsum(abs(mpmath.mpf(float(a)) - b) for a, b in zip(w, ref_w))
    assert node_err <= 1e-16
    assert weight_err <= 32 * np.finfo(float).eps


def test_geodesic_octagon_weight_sum_matches_chord_limit():
    # independent oracle: polygonalize every arc into 4096 chords and take
    # the shoelace area of the resulting near-curved polygon
    dom = OctagonDomain()
    from chernquad.metric import edge_arcs
    pts = []
    for arc in edge_arcs(dom):
        t = np.linspace(0.0, 1.0, 4097)[:-1]
        phi = arc.phi0 + arc.dphi * t
        pts.append(np.column_stack([arc.cu + arc.radius * np.cos(phi),
                                    arc.cv + arc.radius * np.sin(phi)]))
    ring = np.concatenate(pts)
    x, y = ring[:, 0], ring[:, 1]
    shoelace = 0.5 * abs(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))
    _, _, ws = build_nodes(dom, QuadratureSpec(16, 16))
    assert reduce_sum(ws) == pytest.approx(shoelace, rel=1e-6)
    assert reduce_sum(ws) == pytest.approx(dom.area(), rel=1e-13)


def test_geodesic_weight_sum_independent_of_resolution():
    dom = OctagonDomain()
    sums = [reduce_sum(build_nodes(dom, QuadratureSpec(n, n))[2])
            for n in (8, 16, 32)]
    assert sums[0] == pytest.approx(sums[2], rel=1e-14)


def test_reduce_sum_is_order_fixed_and_compensated():
    vals = np.array([1e16, 1.0, -1e16, 1.0])
    assert reduce_sum(vals) == 2.0


def _bits(x) -> int:
    return int(np.float64(x).view(np.int64))


def test_reduce_sum_matches_fsum_bit_for_bit():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    chunk = quadrature._SUM_CHUNK
    # |values| <= 1e301 and at most 2^16 of them: no partial sum overflows
    finite = st.floats(min_value=-1e300, max_value=1e300)

    @st.composite
    def arrays(draw):
        """Drawn values (subnormals and signed zeros among them), exponents
        spread over +-300, subnormal multiples of 2^-1074, or a mix, on both
        sides of the chunk length, optionally as cancelling halves."""
        size = draw(st.sampled_from((1, 2, 100, chunk - 1, chunk, chunk + 1, 2 * chunk + 3)))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        sources = np.array([
            rng.choice(np.array(draw(st.lists(finite, min_size=1, max_size=8))), size),
            rng.standard_normal(size) * 10.0 ** rng.integers(-300, 301, size),
            rng.integers(-(1 << 52), 1 << 52, size) * 5e-324,
        ])
        pick = draw(st.sampled_from(((0,), (1,), (2,), (0, 1, 2))))
        values = sources[rng.choice(pick, size), np.arange(size)]
        if draw(st.booleans()):
            values = np.concatenate([values, -values])
            rng.shuffle(values)
        return values

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(arrays())
    def check(values):
        assert _bits(reduce_sum(values)) == _bits(math.fsum(values.tolist()))

    check()


def test_reduce_sum_edges():
    chunk = quadrature._SUM_CHUNK
    negative_zeros = np.full(chunk + 3, -0.0)
    # an exact zero is fsum's zero (+0.0 on Python 3.11), and so is no value
    assert _bits(reduce_sum(negative_zeros)) == _bits(math.fsum(negative_zeros.tolist()))
    assert _bits(reduce_sum(np.array([0.0, -0.0, 1.5, -1.5]))) == _bits(0.0)
    assert _bits(reduce_sum(np.array([]))) == _bits(0.0)
    # inf and nan fall back to fsum, also past the first chunk
    tail = np.ones(chunk + 5)
    assert reduce_sum(np.append(tail, math.inf)) == math.inf
    assert reduce_sum(np.array([-math.inf, 1.0])) == -math.inf
    assert math.isnan(reduce_sum(np.append(tail, math.nan)))
    with pytest.raises(ValueError, match="inf"):
        reduce_sum(np.array([math.inf, 1.0, -math.inf]))
    # an intermediate overflow gives the exact sum, where fsum raises
    with pytest.raises(OverflowError):
        math.fsum([1e308, 1e308, -1e308])
    assert reduce_sum(np.array([1e308, 1e308, -1e308])) == 1e308
    big = np.finfo(float).max
    assert reduce_sum(np.array([big, big, -big])) == big
    # an exact sum past the float range raises, as in fsum
    with pytest.raises(OverflowError):
        reduce_sum(np.array([1e308, 1e308]))
    # ties round to even, as in fsum: 2^53 + 1 is halfway
    assert reduce_sum(np.array([2.0 ** 53, 1.0])) == 2.0 ** 53
    assert reduce_sum(np.array([2.0 ** 53, 1.0, 2.0 ** -60])) == 2.0 ** 53 + 2.0


def _outcome(f, *args):
    """f's value as bits, or its exception as (type, message)."""
    try:
        return _bits(f(*args))
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


def test_reduce_sum_of_a_zero_stride_view_matches_fsum_bit_for_bit():
    # without weights, an axis of stride 0 is summed once and scaled
    dom = RectDomain(0.0, 2.0, -1.0, 3.0, periodic_u=True, periodic_v=True)
    _, _, ws = build_nodes(dom, QuadratureSpec(9, 11))
    assert ws.strides == (0, 0)
    rng = np.random.default_rng(5)
    in_u = rng.standard_normal((9, 1)) * 10.0 ** rng.integers(-12, 13, (9, 1))
    channel = np.broadcast_to(in_u, (9, 11))
    assert channel.strides[1] == 0
    for view in (ws, channel):
        assert _bits(reduce_sum(view)) == _bits(math.fsum(np.array(view).ravel().tolist()))


@pytest.mark.parametrize("periodic_u,periodic_v", [(False, False), (False, True),
                                                   (True, False), (True, True)])
@pytest.mark.parametrize("zero_stride", ["v", "u", "both", "neither"])
def test_weighted_sum_matches_fsum_of_the_products_bit_for_bit(periodic_u, periodic_v,
                                                              zero_stride):
    # weights on Gauss and trapezoid axes, the latter zero-stride views, times
    # a channel that is a zero-stride view along v, u, both or neither
    dom = RectDomain(0.0, 2.0, -1.0, 3.0, periodic_u=periodic_u, periodic_v=periodic_v)
    _, _, ws = build_nodes(dom, QuadratureSpec(9, 11))
    shape = {"v": (9, 1), "u": (1, 11), "both": (1, 1), "neither": (9, 11)}[zero_stride]
    rng = np.random.default_rng(3)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 13, shape)
    negative_zero_rows = values.copy()
    negative_zero_rows[::2] = -0.0
    for compact in (values, negative_zero_rows, np.full(shape, -0.0)):
        channel = np.broadcast_to(compact, ws.shape)
        products = (ws * channel).ravel().tolist()
        assert _bits(reduce_sum(channel, ws)) == _bits(math.fsum(products))


@pytest.mark.parametrize("rows", [
    [1e308, -1e308, 1e308],  # 1e308 per column: the total overflows only after scaling
    [1e308, -1e308, 1e-300],  # scaled, still finite
    [1.0, math.inf, 2.0],
    [1e308, math.inf, 1.0],  # fsum over the nodes overflows before it meets inf
    [-math.inf, 1.0, math.inf],
    [1.0, math.nan, -1.0],
], ids=["overflow_after_scaling", "finite_after_scaling", "inf", "inf_after_overflow",
        "inf_minus_inf", "nan"])
def test_weighted_sum_gives_the_value_or_error_of_the_full_sum(rows):
    weights = np.broadcast_to(1.0, (3, 4))
    channel = np.broadcast_to(np.array(rows)[:, None], (3, 4))
    assert _outcome(reduce_sum, channel, weights) == _outcome(reduce_sum, weights * channel)
