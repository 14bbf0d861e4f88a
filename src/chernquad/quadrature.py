"""Quadrature rules on chart domains with deterministic reduction.

The chart picks the rule.  Rectangles take a tensor-product rule whose
axis rules follow the domain's periodicity: the trapezoid rule on a
periodic axis (uniform nodes, spectrally accurate for smooth periodic
integrands) and Gauss-Legendre otherwise, which keeps nodes off
boundary seams such as the sphere poles.  The geodesic octagon is a
fan of curved sectors about the vertex centroid: each sector is the image
of the unit square under
(s, t) -> centroid + s * (arc(t) - centroid), integrated by a tensor
Gauss-Legendre rule against the exact Jacobian, which keeps the region
exact and the weight sum equal to the curved measure up to rounding.

The Gauss-Legendre rule is built here (``gauss_legendre``) rather than
taken from ``numpy.polynomial.legendre.leggauss``, whose weights lose
accuracy as n grows (relative error 1e-11 at n = 128) and are then
rescaled to sum to exactly 2, which hides that error.  Newton's method
and the weight formula end in double-double arithmetic, so every node
and weight on [-1, 1] is the correctly rounded value of the exact rule
(checked against a 40-digit reference up to n = 256) and the weights
sum to 2 within about an ulp.

All weights are positive and sum to the domain measure up to a few
ulps: nodes and weights are rounded once more when mapped onto the
domain, and no rescaling forces the sum.  The layer is nodes in
(``build_nodes``) and one exact sum out (``reduce_sum`` of a channel
against the weights), formed in integers and rounded once, as
``math.fsum`` rounds it, so the order of the values does not matter and
a configuration reproduces its results bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .metric import OctagonDomain, ParamDomain, RectDomain, edge_arcs

_SUM_CHUNK = 1 << 14  # values per superaccumulator pass of reduce_sum
_EXP_FIELD = 0x7FF  # the exponent field of a float64; all ones is inf or nan
_ULP_SCALE = 1 << 1074  # exact sums are integers in units of 2^-1074, the least subnormal

MIN_NODES = 8
MAX_NODES = np.iinfo(np.intp).max // 256  # bytes: 4 float64 channels, 8 octagon sectors


@dataclass(frozen=True)
class QuadratureSpec:
    """Node counts per axis; the domain picks the rule (see build_nodes).

    On the octagon ``n_u`` and ``n_v`` are the radial and arc Gauss node
    counts per fan sector.
    """

    n_u: int
    n_v: int

    def __post_init__(self):
        if self.n_u < MIN_NODES or self.n_v < MIN_NODES:
            raise ValueError(f"node counts must be at least {MIN_NODES}")
        if self.n_u * self.n_v > MAX_NODES:
            raise ValueError(f"node counts {self.n_u}x{self.n_v} exceed numpy's limit")


# Double-double arithmetic (Dekker 1971): a pair (hi, lo) of floats stands
# for the unevaluated sum hi + lo, good to about 32 digits.
_SPLITTER = 134217729.0  # 2**27 + 1


def _split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a, b):
    """a * b as the exact sum of two floats."""
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _fast_two_sum(a, b):
    """a + b renormalized into a pair; needs |a| >= |b|."""
    s = a + b
    return s, b - (s - a)


def _dd_add(a, b):
    s = a[0] + b[0]
    t = s - a[0]
    err = (a[0] - (s - t)) + (b[0] - t)
    return _fast_two_sum(s, err + (a[1] + b[1]))


def _dd_mul(a, b):
    p, err = _two_prod(a[0], b[0])
    return _fast_two_sum(p, err + (a[0] * b[1] + a[1] * b[0]))


def _dd_scale(a, c):
    """Double-double a times the float c."""
    p, err = _two_prod(a[0], c)
    return _fast_two_sum(p, err + a[1] * c)


def _dd_div(a, b):
    q = a[0] / b[0]
    r = _dd_add(a, _dd_scale(b, -q))
    return _fast_two_sum(q, (r[0] + r[1]) / b[0])


def _legendre(n: int, x: np.ndarray):
    """P_n(x), P_{n-1}(x), P_{n-2}(x) by the three-term recurrence
    (k + 1) P_{k+1} = (2k + 1) x P_k - k P_{k-1}."""
    p_prev2, p_prev, p = np.ones_like(x), np.ones_like(x), x
    for k in range(1, n):
        p_prev2, p_prev, p = p_prev, p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p, p_prev, p_prev2


def _legendre_dd(n: int, x: np.ndarray):
    """P_n(x) and P_{n-1}(x) at float ``x``, by the same recurrence in
    double-double."""
    zero = np.zeros_like(x)
    p_prev, p = (np.ones_like(x), zero), (x, zero)
    for k in range(1, n):
        t = _dd_add(_dd_mul(_two_prod(x, 2.0 * k + 1.0), p), _dd_scale(p_prev, -float(k)))
        p_prev, p = p, _dd_div(t, (float(k + 1), 0.0))
    return p, p_prev


@functools.lru_cache(maxsize=64)
def gauss_legendre(n: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], read-only.

    The nonnegative roots of P_n start from Tricomi's asymptotic guess
    and take Newton steps on the float64 recurrence until the step is
    below roundoff (Hale & Townsend, SIAM J. Sci. Comput. 35, 2013).  A
    last Newton step with P_n and P_{n-1} in double-double gives each
    root r to ~32 digits, and the weight
    2 / ((1 - r^2) P_n'(r)^2) = 2 (1 - r^2) / (n P_{n-1}(r))^2
    is formed in double-double too, so both are rounded to float64 once:
    they are the correctly rounded values of the exact rule except at
    rare near-ties.  The negative half is the mirror image, so the rule
    is exactly symmetric.  Cached per ``n``.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    theta = (4 * k - 1) * math.pi / (4 * n + 2)
    x = (1.0 - (n - 1) / (8.0 * n**3)
         - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n**4)) * np.cos(theta)
    if n % 2:
        x[-1] = 0.0  # P_n(0) = 0 exactly for odd n
    for _ in range(100):
        p, p_prev, _ = _legendre(n, x)
        step = p * ((1.0 - x) * (1.0 + x)) / (n * (p_prev - x * p))
        x = x - step
        if np.max(np.abs(step)) <= 1e-14:
            break
    else:
        raise ArithmeticError(f"Gauss-Legendre Newton iteration stalled at n={n}")
    # the root is r = x - delta; P_{n-1}(r) is taken to first order in
    # delta, and 1 - r^2 = (1 - x)(1 + x) + 2 x delta up to delta^2
    zero = np.zeros_like(x)
    p, p_prev = _legendre_dd(n, x)
    _, q, q_prev = _legendre(n, x)  # P_{n-1}, P_{n-2} for P_{n-1}'(x)
    one_minus_x2 = _dd_mul(_dd_add((1.0, 0.0), (-x, zero)), _dd_add((1.0, 0.0), (x, zero)))
    delta = (p[0] + p[1]) * one_minus_x2[0] / (n * (p_prev[0] - x * p[0]))
    dq = (n - 1) * (q_prev - x * q) / one_minus_x2[0]
    n_p_prev = _dd_scale(_fast_two_sum(p_prev[0], p_prev[1] - delta * dq), float(n))
    one_minus_r2 = _dd_add(one_minus_x2, (2.0 * x * delta, zero))
    w = _dd_div(_dd_scale(one_minus_r2, 2.0), _dd_mul(n_p_prev, n_p_prev))[0]
    x = x - delta
    # mirror; an odd middle node is not repeated, and 0.0 - x keeps it +0.0
    nodes = np.concatenate([0.0 - x, x[::-1][n % 2:]])
    weights = np.concatenate([w, w[::-1][n % 2:]])
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _axis_rule(periodic: bool, lo: float, hi: float, n: int):
    """Trapezoid on a periodic axis, Gauss-Legendre otherwise."""
    if periodic:
        h = (hi - lo) / n
        return lo + h * np.arange(n), np.full(n, h)
    x, w = gauss_legendre(n)
    half = (hi - lo) / 2.0
    return lo + half * (x + 1.0), half * w


def _sector_nodes(domain: OctagonDomain, n_s: int, n_t: int):
    cu, cv = domain.centroid
    x_s, w_s = _axis_rule(False, 0.0, 1.0, n_s)
    x_t, w_t = _axis_rule(False, 0.0, 1.0, n_t)
    s, w_st = x_s[:, None], w_s[:, None] * w_t
    us, vs, ws = [], [], []
    for arc in edge_arcs(domain):
        phi = arc.phi0 + arc.dphi * x_t
        rel_u = arc.cu + arc.radius * np.cos(phi) - cu
        rel_v = arc.cv + arc.radius * np.sin(phi) - cv
        darc_u = -arc.radius * arc.dphi * np.sin(phi)
        darc_v = arc.radius * arc.dphi * np.cos(phi)
        # ccw vertex order makes this positive for a star-shaped region
        cross = rel_u * darc_v - rel_v * darc_u
        us.append(cu + s * rel_u)
        vs.append(cv + s * rel_v)
        ws.append(w_st * s * cross)
    return np.concatenate(us), np.concatenate(vs), np.concatenate(ws)


def build_nodes(domain: ParamDomain, spec: QuadratureSpec):
    """Nodes (us, vs) that broadcast to the 2-D ``weights``, read row by row
    in a fixed order: the u axis as an (n_u, 1) column and the v axis as a
    (1, n_v) row on a rectangle, the eight (n_u, n_v) sector grids stacked
    into (8 n_u, n_v) arrays on the octagon.

    The trapezoid weights of a periodic axis are all equal, so along it
    the rectangle's weights are a read-only zero-stride view of one
    slice, bit-identical to ``np.outer`` of the axis weights."""
    if isinstance(domain, RectDomain):
        us, w_u = _axis_rule(domain.periodic_u, domain.u_min, domain.u_max, spec.n_u)
        vs, w_v = _axis_rule(domain.periodic_v, domain.v_min, domain.v_max, spec.n_v)
        weights = np.outer(w_u[:1] if domain.periodic_u else w_u,
                           w_v[:1] if domain.periodic_v else w_v)
        return us[:, None], vs[None, :], np.broadcast_to(weights, (spec.n_u, spec.n_v))
    return _sector_nodes(domain, spec.n_u, spec.n_v)


def reduce_sum(values, weights=None) -> float:
    """The exact sum of ``weights * values`` (of ``values`` when ``weights``
    is None) rounded once to the nearest float, ties to even: what
    ``math.fsum`` of the products returns, bit for bit.

    A small superaccumulator (Neal, arXiv:1505.05571): a float is a
    signed 53-bit integer mantissa (with the implicit bit when its
    exponent field e is nonzero) times 2^(max(e, 1) - 1075).
    ``np.bincount`` sums the mantissas' high 27 and low 26 bits per
    exponent over chunks of _SUM_CHUNK products.  Those sums stay below
    2^41, so they are exact and move exactly into int64 bins, which hold
    up to 2^36 values.  The bins meet in one Python int, and one
    correctly rounded division ends the sum.

    Along an axis where every operand has stride 0 (equal trapezoid
    weights, see build_nodes, times a channel that does not vary along
    it), one slice is summed and the exact total scaled by the repeat
    count.  An inf or nan product falls back to ``math.fsum`` over all
    products in row order (its inf, nan or ValueError); numpy's own
    warnings are silenced.  A zero sum is +0.0, also for all -0.0
    products, as ``math.fsum`` gives on Python 3.11.  Unlike
    ``math.fsum``, finite products whose partial sums overflow, such as
    [1e308, 1e308, -1e308], give their exact sum rounded (1e308);
    OverflowError is raised only when that sum itself rounds past the
    float range.
    """
    w, x = np.broadcast_arrays(1.0 if weights is None else weights, values)
    repeated = [w_stride == x_stride == 0 for w_stride, x_stride in zip(w.strides, x.strides)]
    keep = tuple(slice(0, 1) if axis else slice(None) for axis in repeated)
    with np.errstate(over="ignore", invalid="ignore"):
        products = x[keep] if weights is None else w[keep] * x[keep]
    flat = np.ascontiguousarray(products, dtype=float).ravel()
    bins_hi = np.zeros(_EXP_FIELD, dtype=np.int64)
    bins_lo = np.zeros(_EXP_FIELD, dtype=np.int64)
    for lo in range(0, flat.size, _SUM_CHUNK):
        bits = flat[lo:lo + _SUM_CHUNK].view(np.int64)
        exps = (bits >> 52) & _EXP_FIELD
        if exps.max() == _EXP_FIELD:
            return math.fsum(np.broadcast_to(products, x.shape).ravel().tolist())
        mant = (bits & ((1 << 52) - 1)) | ((exps != 0).astype(np.int64) << 52)
        sign = bits >> 63  # 0 or -1
        mant = (mant ^ sign) - sign
        exps = np.maximum(exps, 1)
        bins_hi += np.bincount(exps, mant >> 26, _EXP_FIELD).astype(np.int64)
        bins_lo += np.bincount(exps, mant & ((1 << 26) - 1), _EXP_FIELD).astype(np.int64)
    total = 0
    for e in np.flatnonzero(bins_hi | bins_lo):
        total += ((int(bins_hi[e]) << 26) + int(bins_lo[e])) << int(e) - 1
    repeats = math.prod(n for n, axis in zip(x.shape, repeated) if axis)
    return total * repeats / _ULP_SCALE  # ties to even
