"""Metric-compatible complex structures on a chart, pointwise.

An SPD metric g and the chart orientation determine an area form with
matrix W = [[0, a], [-a, 0]], a = sqrt(det g), and a rotation-by-90
tensor J = -g^{-1} W characterized by g(J X, Y) = area(X, Y).  Together
they turn each tangent plane into a complex line with hermitian product
g + i*area, returned as a Python complex.  The constructions here are
exact 2x2 algebra; tolerances belong to the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OrientationMismatchError
from .metric import MetricTensor

# same-orientation pairs give det(bundle map) >= 1; opposite orientation
# drives it to <= 0, so any cut strictly between separates
_ORIENTATION_DET_FLOOR = 0.5


@dataclass(frozen=True)
class TangentVector:
    x1: float
    x2: float

    def array(self) -> np.ndarray:
        return np.array([self.x1, self.x2], dtype=float)


@dataclass(frozen=True)
class AreaFormAtPoint:
    """Oriented area form; coefficient a in a * du^dv."""

    coeff: float

    def __call__(self, x: TangentVector, y: TangentVector) -> float:
        return self.coeff * (x.x1 * y.x2 - x.x2 * y.x1)


@dataclass(frozen=True)
class ComplexStructureTensor:
    """The tensor J as a 2x2 matrix; J^2 = -I, det J = 1."""

    m: np.ndarray

    def __call__(self, x: TangentVector) -> TangentVector:
        out = self.m @ x.array()
        return TangentVector(float(out[0]), float(out[1]))


def area_form(g: MetricTensor) -> AreaFormAtPoint:
    return AreaFormAtPoint(float(np.sqrt(g.det)))


def complex_structure(g: MetricTensor) -> ComplexStructureTensor:
    """J = -g^{-1} W, the unique g-isometry with g(J X, Y) = area(X, Y)
    rotating positively for the chart orientation."""
    a = float(np.sqrt(g.det))
    inv = np.array([[g.g22, -g.g12], [-g.g12, g.g11]]) / g.det
    w = np.array([[0.0, a], [-a, 0.0]])
    return ComplexStructureTensor(-inv @ w)


def metric_inner(g: MetricTensor, x: TangentVector, y: TangentVector) -> float:
    return float(x.array() @ g.matrix() @ y.array())


def hermitian_product(g: MetricTensor, x: TangentVector, y: TangentVector) -> complex:
    """g(X, Y) + i * area(X, Y), conjugate-linear in X and complex-linear
    in Y for the J action: h(JX, Y) = -i h(X, Y), h(X, JY) = i h(X, Y)."""
    return complex(metric_inner(g, x, y), area_form(g)(x, y))


def complex_scale(j: ComplexStructureTensor, c: complex, x: TangentVector) -> TangentVector:
    """(a + ib) . X = a X + b J X, the complex module structure."""
    out = c.real * x.array() + c.imag * (j.m @ x.array())
    return TangentVector(float(out[0]), float(out[1]))


def parallelogram_residual(g: MetricTensor, x: TangentVector, y: TangentVector) -> float:
    """|area(X,Y)^2 - (g(X,X) g(Y,Y) - g(X,Y)^2)|; zero in exact arithmetic."""
    w = area_form(g)(x, y)
    gram = metric_inner(g, x, x) * metric_inner(g, y, y) - metric_inner(g, x, y) ** 2
    return abs(w * w - gram)


def bundle_isomorphism(j: ComplexStructureTensor,
                       j_prime: ComplexStructureTensor) -> np.ndarray:
    """Phi = (I - J' J) / 2, intertwining the two complex multiplications:
    Phi J = J' Phi, with det Phi = (2 - tr(J' J)) / 4 >= 1 when the two
    structures induce the same orientation."""
    phi = 0.5 * (np.eye(2) - j_prime.m @ j.m)
    det = float(np.linalg.det(phi))
    if det < _ORIENTATION_DET_FLOOR:
        raise OrientationMismatchError(
            f"complex structures induce opposite orientations (det Phi = {det:.3e})")
    return phi
