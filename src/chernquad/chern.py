"""First Chern numbers of the tangent line bundle by quadrature.

``chern_number`` integrates the curvature two-form coefficient over the
chart and divides by 2*pi; it also integrates K * sqrt(det g) as a
second route and records the disagreement.  The raw value is accepted
when it sits within 0.01 of an integer; otherwise the result is flagged
non-converged (reported, never raised).

The sample lives here: ``curvature_sample`` evaluates a metric once on
the quadrature nodes, and ``chern_number`` keeps it in its result for
``connection_difference`` and the grid dump to read.  It holds four
channels (the two-form, K * sqrt(det g), b_u and b_v) and two maxima
(alpha_max and the identity residual).  The grid streams through the
curvature kernel, which broadcasts (u, v), in tiles of at most
BLOCK_NODES nodes: whole rows, or pieces of two rows where a row is
longer than BLOCK_NODES // 2.  Temporaries scale with the tile.  Each
channel is a read-only view shaped like the node grid over storage as
compact as the kernel's output: a channel in u alone on a rectangle
keeps n_u values, one that is constant keeps one.  The stores are sized
from the first tile, whose two rows and two columns name the axes each
channel varies on, so later tiles may be written in any order.  Both
integrals are ``quadrature.reduce_sum``, the one reduction, which sums
each distinct product once and scales the exact total by its repeat
count, so on a periodic v axis they cost n_u products; one that leaves
the float range raises NonFiniteValueError.
The tile size changes no bit, as every channel is computed node by
node, both maxima are maxima and the sums round the exact total once,
whatever the order, chunking or repetition of its values.

``stokes_residual`` integrates the finite-difference exterior derivative
of a sampled 1-form over a fully periodic chart, the quadrature ghost of
the boundary-free Stokes argument.  It cannot fail: the periodic
central-difference curl summed over the grid telescopes to zero for any
sampled 1-form (random entries of size 100 give below 1e-13 at 16^2 to
256^2 nodes), so it checks the discretization, not the form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .curvature import (CurvatureSample, OneForm, curvature_report_grid, fd_curl,
                        identity_residual)
from .errors import NonFiniteValueError, PeriodicityError
from .metric import RectDomain
from .quadrature import QuadratureSpec, build_nodes, reduce_sum
from .zoo import Surface

TWO_PI = 2.0 * math.pi

CONVERGENCE_RESIDUAL = 0.01

BLOCK_NODES = 1 << 14  # nodes per evaluation block of curvature_sample


@dataclass(frozen=True)
class ChernResult:
    """Raw and rounded Chern numbers with convergence diagnostics.

    ``raw`` comes from the connection-form route (two-form coefficient);
    ``raw_gauss`` from K * sqrt(det g).  ``two_path_delta`` is their
    absolute disagreement.  ``max_identity_residual`` is the largest
    ``curvature.identity_residual`` of the two routes on the quadrature
    nodes.  ``sample`` is the curvature sample both integrals were taken
    over.
    """

    raw: float
    rounded: int
    residual: float
    n_u: int
    n_v: int
    converged: bool
    raw_gauss: float
    two_path_delta: float
    max_identity_residual: float
    sample: CurvatureSample = dataclass_field(repr=False, compare=False)


def _tile(x: np.ndarray, index: tuple[slice, slice]) -> np.ndarray:
    """x[index], keeping whole an axis of length one, along which x broadcasts."""
    return x[tuple(part if n > 1 else slice(None) for part, n in zip(index, x.shape))]


def _compact(x: np.ndarray) -> np.ndarray:
    """x cut to length one along each axis it broadcasts along (stride 0)."""
    return x[tuple(slice(0, 1) if stride == 0 else slice(None) for stride in x.strides)]


def curvature_sample(surface: Surface, spec: QuadratureSpec) -> CurvatureSample:
    """One curvature pass over the quadrature nodes of the surface's chart,
    in tiles of at most BLOCK_NODES nodes: whole grid rows, or pieces of
    two rows where a row is longer than BLOCK_NODES // 2.  Each channel
    is stored as compact as the kernel computes it on the first tile,
    which has two rows and two columns where the grid has them and so
    names the axes the channel varies on (see zoo.Surface); every tile is
    written into these stores and each channel is returned as a read-only
    grid view.  K * sqrt(det g), the identity residual and the finiteness
    check are taken on the compact values.  A non-finite two-form or
    K * sqrt(det g) raises NonFiniteValueError naming the first such node
    in row order (numpy's own warnings are silenced)."""
    us, vs, ws = build_nodes(surface.domain, spec)
    n_rows, n_cols = ws.shape
    width = min(n_cols, BLOCK_NODES // 2)
    height = BLOCK_NODES // width
    stores = None  # two-form, K * area, b_u, b_v
    alpha_max = max_residual = 0.0
    with np.errstate(all="ignore"):
        for lo in range(0, n_rows, height):
            for left in range(0, n_cols, width):
                index = (slice(lo, lo + height), slice(left, left + width))
                block = curvature_report_grid(surface, _tile(us, index), _tile(vs, index))
                two_form, k, area, b_u, b_v = map(_compact, (
                    block.two_form_coeff, block.k, block.area_coeff, block.b_u, block.b_v))
                k_area = k * area
                compact = (two_form, k_area, b_u, b_v)
                if stores is None:  # the first tile names the axes each channel varies on
                    stores = [np.empty([n if m > 1 else 1 for n, m in zip(ws.shape, x.shape)])
                              for x in compact]
                for store, x in zip(stores, compact):
                    _tile(store, index)[...] = x
                alpha_max = max(alpha_max, block.alpha_max)
                max_residual = max(max_residual, identity_residual(two_form, k_area))
    channels = [np.broadcast_to(store, ws.shape) for store in stores]
    for name, store, values in zip(("curvature two-form", "K * sqrt(det g)"), stores, channels):
        if not np.isfinite(store).all():
            bad = np.flatnonzero(~np.isfinite(values))[0]
            u, v = (np.broadcast_to(x, ws.shape).flat[bad] for x in (us, vs))
            raise NonFiniteValueError(f"{name} is {values.flat[bad]} at node (u, v) = "
                                      f"({u:.17g}, {v:.17g})")
    return CurvatureSample(surface.domain, us, vs, ws, *channels, alpha_max=alpha_max,
                           max_identity_residual=max_residual)


def _integral(name: str, channel: np.ndarray, weights: np.ndarray) -> float:
    """reduce_sum(channel, weights), or NonFiniteValueError naming the
    integral where the sum leaves the float range."""
    try:
        total = reduce_sum(channel, weights)
    except (OverflowError, ValueError) as exc:
        raise NonFiniteValueError(f"integral of {name} is not finite ({exc})") from None
    if not math.isfinite(total):
        raise NonFiniteValueError(f"integral of {name} is {total}")
    return total


def chern_number(surface: Surface, spec: QuadratureSpec | None = None) -> ChernResult:
    """(1 / 2*pi) * integral of the curvature two-form over the chart."""
    if spec is None:
        spec = QuadratureSpec(*surface.reference_resolution)
    sample = curvature_sample(surface, spec)
    raw = _integral("curvature two-form", sample.two_form, sample.weights) / TWO_PI
    raw_gauss = _integral("K * sqrt(det g)", sample.k_area, sample.weights) / TWO_PI
    rounded = int(round(raw))
    residual = abs(raw - rounded)
    return ChernResult(
        raw=raw,
        rounded=rounded,
        residual=residual,
        n_u=spec.n_u,
        n_v=spec.n_v,
        converged=residual < CONVERGENCE_RESIDUAL,
        raw_gauss=raw_gauss,
        two_path_delta=abs(raw - raw_gauss),
        max_identity_residual=sample.max_identity_residual,
        sample=sample,
    )


def stokes_residual(form: OneForm, domain: RectDomain) -> float:
    """|integral of d(form)| over a fully periodic rectangle chart.

    The exterior derivative is the central finite-difference curl with
    periodic wrap at the sampling spacing, integrated with the matching
    trapezoid weights.  Each sample enters that sum once with each sign,
    so the result is rounding error for every ``form``.
    """
    if not isinstance(domain, RectDomain) or not domain.fully_periodic:
        raise PeriodicityError("stokes_residual needs a fully periodic rectangle chart")
    curl = fd_curl(form, domain)
    n_u, n_v = form.eta_u.shape
    h_u = (domain.u_max - domain.u_min) / n_u
    h_v = (domain.v_max - domain.v_min) / n_v
    return abs(reduce_sum(curl) * h_u * h_v)
