"""First Chern numbers of the tangent line bundle by quadrature.

``chern_number`` integrates the curvature two-form coefficient over the
chart and divides by 2*pi; it also integrates K * sqrt(det g) as a
second route and records the disagreement.  The raw value is accepted
when it sits within 0.01 of an integer; otherwise the result is flagged
non-converged (reported, never raised).

The sample lives here: ``curvature_sample`` evaluates a metric once on
the quadrature nodes, and ``chern_number`` keeps it in its result for
``connection_difference`` and the grid dump to read.

``stokes_residual`` integrates the finite-difference exterior derivative
of a sampled 1-form over a fully periodic chart; for differences of
connection forms this is the quadrature ghost of the boundary-free
Stokes argument and must vanish to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .curvature import CurvatureSample, OneForm, curvature_report_grid, fd_curl
from .errors import NonFiniteValueError, PeriodicityError
from .metric import MetricField, RectDomain
from .quadrature import QuadratureSpec, build_nodes, reduce_sum

TWO_PI = 2.0 * math.pi

CONVERGENCE_RESIDUAL = 0.01


@dataclass(frozen=True)
class ChernResult:
    """Raw and rounded Chern numbers with convergence diagnostics.

    ``raw`` comes from the connection-form route (two-form coefficient);
    ``raw_gauss`` from K * sqrt(det g).  ``two_path_delta`` is their
    absolute disagreement.  ``max_identity_residual`` is the largest
    relative pointwise gap |two_form - K*area| / (1 + |K*area|) seen on
    the quadrature nodes.  ``sample`` is the curvature sample both
    integrals were taken over.
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
    """One curvature pass over the quadrature nodes of the field's chart.
    A non-finite two-form or K * sqrt(det g) raises NonFiniteValueError
    naming the first such node (numpy's own warnings are silenced)."""
    us, vs, ws = build_nodes(field.domain, spec)
    with np.errstate(all="ignore"):
        report = curvature_report_grid(field, us, vs)
        k_area = report.k * report.area_coeff
    for name, values in (("curvature two-form", report.two_form_coeff),
                         ("K * sqrt(det g)", k_area)):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise NonFiniteValueError(f"{name} is {values[bad[0]]} at node (u, v) = "
                                      f"({us[bad[0]]:.17g}, {vs[bad[0]]:.17g})")
    return CurvatureSample(domain=field.domain, spec=spec, us=us, vs=vs, weights=ws,
                           report=report, k_area=k_area)


def chern_number(surface, spec: QuadratureSpec | None = None) -> ChernResult:
    """(1 / 2*pi) * integral of the curvature two-form over the chart."""
    if spec is None:
        n_u, n_v = surface.reference_resolution
        spec = QuadratureSpec.for_domain(surface.domain, n_u, n_v)
    sample = curvature_sample(surface.field, spec)
    two_form, k_area = sample.report.two_form_coeff, sample.k_area
    raw = reduce_sum(sample.weights * two_form) / TWO_PI
    raw_gauss = reduce_sum(sample.weights * k_area) / TWO_PI
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
        max_identity_residual=float(np.max(np.abs(two_form - k_area) / (1.0 + np.abs(k_area)))),
        sample=sample,
    )


def stokes_residual(form: OneForm, domain_or_surface) -> float:
    """|integral of d(form)| over a fully periodic rectangle chart.

    The exterior derivative is the central finite-difference curl with
    periodic wrap at the sampling spacing, integrated with the matching
    trapezoid weights.
    """
    domain = getattr(domain_or_surface, "domain", domain_or_surface)
    if not isinstance(domain, RectDomain) or not domain.fully_periodic:
        raise PeriodicityError("stokes_residual needs a fully periodic rectangle chart")
    curl = fd_curl(form, domain)
    h_u = (domain.u_max - domain.u_min) / len(form.us)
    h_v = (domain.v_max - domain.v_min) / len(form.vs)
    return abs(reduce_sum(curl) * h_u * h_v)
