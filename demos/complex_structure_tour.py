"""Tour of the metric-compatible complex structure at a single point.

Builds J from a sample SPD metric, checks its defining algebra, then
shows how the hermitian product turns the tangent plane into a complex
line. Run: python3 demos/complex_structure_tour.py
"""

import numpy as np

from chernquad import (
    MetricTensor,
    area_form,
    bundle_isomorphism,
    complex_scale,
    complex_structure,
    hermitian_product,
    metric_inner,
)

g = MetricTensor(4.0, 1.0, 2.0)
j = complex_structure(g)

print("metric  g =", [[g.g11, g.g12], [g.g12, g.g22]])
print("area coefficient sqrt(det g) =", float(np.sqrt(g.det)))
print("J =")
print(j)
print()

x = np.array([1.0, 0.0])
y = np.array([0.3, 1.2])

print("defining relation   g(JX, Y) - area(X, Y) =",
      metric_inner(g, j @ x, y) - area_form(g, x, y))
print("square              J @ J + I =")
print(j @ j + np.eye(2))
print("isometry            g(JX, JY) - g(X, Y) =",
      metric_inner(g, j @ x, j @ y) - metric_inner(g, x, y))
print()

# the tangent plane as a complex line: i acts as J
h_xy = hermitian_product(g, x, y)
h_jxy = hermitian_product(g, j @ x, y)
print("h(X, Y)  =", h_xy)
print("h(JX, Y) =", h_jxy, " (equals -i h(X, Y))")
print("|X|^2 via h(X, X) =", hermitian_product(g, x, x))
print()

# scaling by a complex number mixes X and JX
c = complex(0.6, -0.8)
cx = complex_scale(j, c, x)
print(f"({c}) . X = ({cx[0]:.6f}, {cx[1]:.6f}),  |c|^2 |X|^2 =",
      abs(c) ** 2 * metric_inner(g, x, x),
      " matches", metric_inner(g, cx, cx))
print()

# two metrics over the same plane: the averaged map intertwines them
g2 = MetricTensor(1.0, -0.4, 3.0)
j2 = complex_structure(g2)
phi = bundle_isomorphism(j, j2)
print("Phi intertwining residual |Phi J - J' Phi| =",
      np.max(np.abs(phi @ j - j2 @ phi)))
print("det Phi =", np.linalg.det(phi), "(>= 1 for same orientation)")
