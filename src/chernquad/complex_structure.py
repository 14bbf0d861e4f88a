"""Metric-compatible complex structures on a chart, pointwise.

An SPD metric g and the chart orientation determine an area form with
matrix W = [[0, a], [-a, 0]], a = sqrt(det g), and a rotation-by-90
tensor J = -g^{-1} W characterized by g(J X, Y) = area(X, Y).  Together
they turn each tangent plane into a complex line with hermitian product
g + i*area, returned as a Python complex.  Tangent vectors are length-2
arrays (x1, x2) of chart components, and J is a 2x2 array acting by
``j @ x``.  The constructions here are exact 2x2 algebra; tolerances
belong to the tests.
"""

from __future__ import annotations

import numpy as np

from .errors import OrientationMismatchError
from .metric import MetricTensor

# same-orientation pairs give det(bundle map) >= 1; opposite orientation
# drives it to <= 0, so any cut strictly between separates
_ORIENTATION_DET_FLOOR = 0.5


def area_form(g: MetricTensor, x: np.ndarray, y: np.ndarray) -> float:
    """area(X, Y) = sqrt(det g) (x1 y2 - x2 y1), oriented by du^dv."""
    return float(np.sqrt(g.det) * (x[0] * y[1] - x[1] * y[0]))


def complex_structure(g: MetricTensor) -> np.ndarray:
    """J = -g^{-1} W, the unique g-isometry with g(J X, Y) = area(X, Y)
    rotating positively for the chart orientation; J^2 = -I, det J = 1."""
    a = float(np.sqrt(g.det))
    inv = np.array([[g.g22, -g.g12], [-g.g12, g.g11]]) / g.det
    w = np.array([[0.0, a], [-a, 0.0]])
    return -inv @ w


def metric_inner(g: MetricTensor, x: np.ndarray, y: np.ndarray) -> float:
    return float(x @ g.matrix() @ y)


def hermitian_product(g: MetricTensor, x: np.ndarray, y: np.ndarray) -> complex:
    """g(X, Y) + i * area(X, Y), conjugate-linear in X and complex-linear
    in Y for the J action: h(JX, Y) = -i h(X, Y), h(X, JY) = i h(X, Y)."""
    return complex(metric_inner(g, x, y), area_form(g, x, y))


def complex_scale(j: np.ndarray, c: complex, x: np.ndarray) -> np.ndarray:
    """(a + ib) . X = a X + b J X, the complex module structure."""
    return c.real * x + c.imag * (j @ x)


def parallelogram_residual(g: MetricTensor, x: np.ndarray, y: np.ndarray) -> float:
    """|area(X,Y)^2 - (g(X,X) g(Y,Y) - g(X,Y)^2)|; zero in exact arithmetic."""
    w = area_form(g, x, y)
    gram = metric_inner(g, x, x) * metric_inner(g, y, y) - metric_inner(g, x, y) ** 2
    return abs(w * w - gram)


def bundle_isomorphism(j: np.ndarray, j_prime: np.ndarray) -> np.ndarray:
    """Phi = (I - J' J) / 2, intertwining the two complex multiplications:
    Phi J = J' Phi, with det Phi = (2 - tr(J' J)) / 4 >= 1 when the two
    structures induce the same orientation."""
    phi = 0.5 * (np.eye(2) - j_prime @ j)
    det = float(np.linalg.det(phi))
    if det < _ORIENTATION_DET_FLOOR:
        raise OrientationMismatchError(
            f"complex structures induce opposite orientations (det Phi = {det:.3e})")
    return phi
