"""Curvature of the tangent line bundle, three ways, at random points.

For each builtin surface: the two-form coefficient from the hermitian
connection (Cartan's structure equations), K * sqrt(det g) from the
Brioschi formula, and K from the Christoffel route. All three must
agree pointwise.
Run: python3 demos/curvature_identities.py
"""

import numpy as np

from chernquad import (
    Point2,
    connection_form,
    curvature_two_form,
    gauss_curvature,
    make_surface,
)

rng = np.random.default_rng(7)

for kind in ("sphere", "torus_revolution", "flat_torus", "poincare_octagon"):
    surf = make_surface(kind)
    us, vs = surf.domain.sample_interior(rng, 200)
    worst_identity = 0.0
    worst_christoffel = 0.0
    worst_alpha = 0.0
    for u, v in zip(us, vs):
        p = Point2(float(u), float(v))
        rep = curvature_two_form(surf, p)
        worst_identity = max(worst_identity, rep.identity_residual())
        worst_christoffel = max(
            worst_christoffel,
            abs(gauss_curvature(surf, p) - rep.k) / (1.0 + abs(rep.k)))
        form = connection_form(surf, p)
        worst_alpha = max(worst_alpha, abs(form.alpha_u), abs(form.alpha_v))
    print(f"{surf.name:28s}  |two_form - K*area| {worst_identity:8.1e}   "
          f"|K - K_christoffel| {worst_christoffel:8.1e}   "
          f"hermiticity residual {worst_alpha:8.1e}")

# the sphere pins the sign convention: b_v = cos(theta), b_u = 0
surf = make_surface("sphere")
theta = np.pi / 3
form = connection_form(surf, Point2(theta, 0.5))
print()
print(f"sphere connection form at theta = pi/3: b_u = {form.b_u:.3e}, "
      f"b_v = {form.b_v:.12f} (cos theta = {np.cos(theta):.12f})")
