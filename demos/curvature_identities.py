"""Curvature of the tangent line bundle, three ways, at random points.

For each builtin surface: the two-form coefficient from the hermitian
connection (Cartan's structure equations), K * sqrt(det g) from the
Brioschi formula, and K from the Christoffel route. All three must
agree pointwise.
Run: python3 demos/curvature_identities.py
"""

import numpy as np

from chernquad import (
    connection_form,
    curvature_report_grid,
    gauss_curvature,
    make_surface,
)

rng = np.random.default_rng(7)

for kind in ("sphere", "torus_revolution", "flat_torus", "poincare_octagon"):
    surf = make_surface(kind)
    us, vs = surf.domain.sample_interior(rng, 200)
    rep = curvature_report_grid(surf, us, vs)
    worst_identity = rep.identity_residual()
    worst_christoffel = np.max(np.abs(gauss_curvature(surf, us, vs) - rep.k)
                               / (1.0 + np.abs(rep.k)))
    form = connection_form(surf, us, vs)
    worst_alpha = np.max(np.maximum(np.abs(form.alpha_u), np.abs(form.alpha_v)))
    print(f"{surf.name:28s}  |two_form - K*area| {worst_identity:8.1e}   "
          f"|K - K_christoffel| {worst_christoffel:8.1e}   "
          f"hermiticity residual {worst_alpha:8.1e}")

# the sphere pins the sign convention: b_v = cos(theta), b_u = 0
surf = make_surface("sphere")
theta = np.pi / 3
form = connection_form(surf, theta, 0.5)
print()
print(f"sphere connection form at theta = pi/3: b_u = {form.b_u:.3e}, "
      f"b_v = {form.b_v:.12f} (cos theta = {np.cos(theta):.12f})")
