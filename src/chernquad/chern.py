"""First Chern numbers of the tangent line bundle by quadrature.

``chern_number`` integrates the curvature two-form coefficient over the
chart and divides by 2*pi; it also integrates K * sqrt(det g) as a
second route and records the disagreement.  The raw value is accepted
when it sits within 0.01 of an integer; otherwise the result is flagged
non-converged (reported, never raised).

The sample lives here: ``curvature_sample`` evaluates a metric once on
the quadrature nodes, and ``chern_number`` keeps it in its result for
``connection_difference`` and the grid dump to read.  It stores four
channels per node (the two-form, K * sqrt(det g), b_u and b_v) and two
maxima (alpha_max and the identity residual).  Nodes stream through the
curvature kernel in u-major blocks of BLOCK_NODES into the full-length
channels, so temporaries scale with the block, not the grid; the block
size changes no bit, as every channel is computed node by node, both
maxima are maxima and ``reduce_sum`` is exactly rounded.

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
from .metric import MetricField, RectDomain
from .quadrature import QuadratureSpec, build_nodes, reduce_sum

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


def curvature_sample(field: MetricField, spec: QuadratureSpec) -> CurvatureSample:
    """One curvature pass over the quadrature nodes of the field's chart,
    in blocks of BLOCK_NODES nodes.  A non-finite two-form or
    K * sqrt(det g) raises NonFiniteValueError naming the first such node
    (numpy's own warnings are silenced)."""
    us, vs, ws = build_nodes(field.domain, spec)
    alpha_max = max_residual = 0.0
    with np.errstate(all="ignore"):
        for lo in range(0, us.size, BLOCK_NODES):
            cut = slice(lo, lo + BLOCK_NODES)
            block = curvature_report_grid(field, us[cut], vs[cut])
            if lo == 0:  # here, to reuse the first block's freed temporaries
                channels = np.empty((4, us.size))  # two-form, K * area, b_u, b_v
            k_area = block.k * block.area_coeff
            channels[:, cut] = (block.two_form_coeff, k_area, block.b_u, block.b_v)
            alpha_max = max(alpha_max, block.alpha_max)
            max_residual = max(max_residual, identity_residual(block.two_form_coeff, k_area))
    for name, values in (("curvature two-form", channels[0]),
                         ("K * sqrt(det g)", channels[1])):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise NonFiniteValueError(f"{name} is {values[bad[0]]} at node (u, v) = "
                                      f"({us[bad[0]]:.17g}, {vs[bad[0]]:.17g})")
    return CurvatureSample(domain=field.domain, spec=spec, us=us, vs=vs, weights=ws,
                           two_form=channels[0], k_area=channels[1], b_u=channels[2],
                           b_v=channels[3], alpha_max=alpha_max,
                           max_identity_residual=max_residual)


def chern_number(surface, spec: QuadratureSpec | None = None) -> ChernResult:
    """(1 / 2*pi) * integral of the curvature two-form over the chart."""
    if spec is None:
        n_u, n_v = surface.reference_resolution
        spec = QuadratureSpec(n_u, n_v)
    sample = curvature_sample(surface.field, spec)
    raw = reduce_sum(sample.weights * sample.two_form) / TWO_PI
    raw_gauss = reduce_sum(sample.weights * sample.k_area) / TWO_PI
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
