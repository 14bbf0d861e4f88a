"""The rotation tensor J, hermitian products, and bundle maps."""

import numpy as np
import pytest

from chernquad.complex_structure import (
    area_form,
    bundle_isomorphism,
    complex_scale,
    complex_structure,
    hermitian_product,
    metric_inner,
    parallelogram_residual,
)
from chernquad.errors import OrientationMismatchError
from chernquad.metric import MetricTensor
from chernquad.verify import _random_spd


EUCLIDEAN = MetricTensor(1.0, 0.0, 1.0)


def test_euclidean_structure_is_rotation_by_90():
    j = complex_structure(EUCLIDEAN)
    assert np.array_equal(j, np.array([[0.0, -1.0], [1.0, 0.0]]))
    rotated = j @ np.array([1.0, 0.0])
    assert tuple(rotated) == (0.0, 1.0)


def test_diagonal_metric_closed_form():
    # g = diag(4, 1): a = 2, J = [[0, -1/2], [2, 0]]
    j = complex_structure(MetricTensor(4.0, 0.0, 1.0))
    assert j == pytest.approx(np.array([[0.0, -0.5], [2.0, 0.0]]))


@pytest.mark.parametrize("seed", range(8))
def test_defining_identities_random_spd(seed):
    rng = np.random.default_rng(seed)
    g = _random_spd(rng)
    j = complex_structure(g)
    x = rng.normal(size=2)
    y = rng.normal(size=2)

    # defining property g(JX, Y) = area(X, Y)
    assert metric_inner(g, j @ x, y) == pytest.approx(area_form(g, x, y), abs=1e-12)
    # J^2 = -I
    assert j @ j == pytest.approx(-np.eye(2), abs=1e-13)
    # isometry g(JX, JY) = g(X, Y)
    assert metric_inner(g, j @ x, j @ y) == pytest.approx(
        metric_inner(g, x, y), abs=1e-12)
    # skew-adjointness g(JX, Y) = -g(X, JY)
    assert metric_inner(g, j @ x, y) == pytest.approx(
        -metric_inner(g, x, j @ y), abs=1e-12)
    # area(X,Y)^2 = Gram determinant
    assert parallelogram_residual(g, x, y) < 1e-10
    assert float(np.linalg.det(j)) == pytest.approx(1.0, abs=1e-13)


def test_structure_depends_only_on_conformal_class():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = _random_spd(rng)
        lam = float(np.exp(rng.normal()))
        scaled = MetricTensor(lam * g.g11, lam * g.g12, lam * g.g22)
        assert complex_structure(scaled) == pytest.approx(
            complex_structure(g), abs=1e-12)


def test_hermitian_product_is_complex_linear():
    rng = np.random.default_rng(3)
    g = _random_spd(rng)
    j = complex_structure(g)
    x = rng.normal(size=2)
    y = rng.normal(size=2)
    h = hermitian_product(g, x, y)
    # conjugate-linear in the first slot: h(JX, Y) = -i h(X, Y)
    assert hermitian_product(g, j @ x, y) == pytest.approx(-1j * h, abs=1e-12)
    # complex-linear in the second slot: h(X, JY) = i h(X, Y)
    assert hermitian_product(g, x, j @ y) == pytest.approx(1j * h, abs=1e-12)
    # hermitian symmetry h(Y, X) = conj h(X, Y)
    assert hermitian_product(g, y, x) == pytest.approx(
        h.conjugate(), abs=1e-12)
    # h(X, X) = |X|_g^2 is real and positive
    diag = hermitian_product(g, x, x)
    assert diag.imag == pytest.approx(0.0, abs=1e-13)
    assert diag.real > 0.0


def test_complex_scale_matches_module_axioms():
    rng = np.random.default_rng(4)
    g = _random_spd(rng)
    j = complex_structure(g)
    x = rng.normal(size=2)
    y = rng.normal(size=2)
    c, d = complex(0.3, -1.2), complex(-0.7, 0.4)

    ix = complex_scale(j, 1j, x)
    assert tuple(ix) == pytest.approx(tuple(j @ x), abs=1e-15)
    once = complex_scale(j, c * d, x)
    twice = complex_scale(j, c, complex_scale(j, d, x))
    assert tuple(once) == pytest.approx(tuple(twice), abs=1e-12)
    # h(cX, Y) = conj(c) h(X, Y) under first-slot conjugate linearity
    h = hermitian_product(g, x, y)
    assert hermitian_product(g, complex_scale(j, c, x), y) == \
        pytest.approx(c.conjugate() * h, abs=1e-12)


def test_area_form_kernel_and_antisymmetry():
    w = MetricTensor(6.25, 0.0, 1.0)  # sqrt(det) = 2.5
    x = np.array([1.0, 2.0])
    y = np.array([3.0, -1.0])
    assert area_form(w, x, x) == 0.0
    assert area_form(w, x, y) == -area_form(w, y, x)
    assert area_form(w, x, y) == pytest.approx(2.5 * (1.0 * -1.0 - 2.0 * 3.0))
    g = MetricTensor(2.0, 0.5, 3.0)
    assert area_form(g, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(
        np.sqrt(g.det))


def test_bundle_isomorphism_intertwines():
    rng = np.random.default_rng(5)
    for _ in range(50):
        j = complex_structure(_random_spd(rng))
        j_prime = complex_structure(_random_spd(rng))
        phi = bundle_isomorphism(j, j_prime)
        assert phi @ j == pytest.approx(j_prime @ phi, abs=1e-12)
        assert float(np.linalg.det(phi)) >= 1.0 - 1e-12


def test_bundle_isomorphism_same_structure_is_identity():
    j = complex_structure(MetricTensor(3.0, 1.0, 2.0))
    assert bundle_isomorphism(j, j) == pytest.approx(np.eye(2), abs=1e-14)


def test_opposite_orientation_rejected():
    j = complex_structure(EUCLIDEAN)
    flipped = -j  # the structure of the flipped chart
    with pytest.raises(OrientationMismatchError):
        bundle_isomorphism(j, flipped)
