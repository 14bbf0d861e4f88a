"""Metric independence of the Chern number on the torus.

Deforms the torus metric three ways (conformal scale, random smooth
perturbation, pullback by a twist diffeomorphism), recomputes the raw
Chern integral, and integrates the exterior derivative of the
connection-difference 1-form eta. Every deformation moves the
integrand; none moves the integral.
Run: python3 demos/metric_independence.py
"""

from chernquad import (
    QuadratureSpec,
    chern_number,
    connection_difference,
    conformal_surface,
    make_surface,
    perturbed_surface,
    stokes_residual,
    twisted_surface,
)

base = make_surface("torus_revolution")
spec = QuadratureSpec.for_domain(base.domain, 128, 128)
reference = chern_number(base, spec)
print(f"base {base.name}: raw = {reference.raw:+.2e}")
print()

variants = (
    conformal_surface(base, "exp(0.6*sin(u))"),
    perturbed_surface(base, seed=1, amplitude=0.1),
    twisted_surface(base, 0.3),
)

for surf in variants:
    result = chern_number(surf, spec)
    eta = connection_difference(reference.sample, result.sample)
    print(surf.name)
    print(f"  raw Chern        {result.raw:+.3e}   (delta {result.raw - reference.raw:+.1e})")
    print(f"  integral of deta {stokes_residual(eta, base.domain):.3e}   "
          f"(Stokes: must vanish on a closed chart)")
    print(f"  eta realness     {eta.imag_max:.3e}")
    print()

# the pointwise integrand genuinely changes; only its integral is pinned
import numpy as np

from chernquad import curvature_report_grid

us = np.linspace(0.0, 2 * np.pi, 9)[:-1]
vs = np.zeros_like(us)
k_base = curvature_report_grid(base.field, us, vs).two_form_coeff
k_conf = curvature_report_grid(variants[0].field, us, vs).two_form_coeff
print("two-form coefficient along v = 0 (base vs conformal):")
for u, a, b in zip(us, k_base, k_conf):
    print(f"  u = {u:5.2f}   {a:+.6f}   {b:+.6f}")
