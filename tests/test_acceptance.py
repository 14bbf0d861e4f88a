"""End-to-end acceptance: every verification suite at its stated tolerance.

Each test runs one suite from :mod:`chernquad.verify` with a fixed seed
and prints its one-line summary, so ``pytest -s tests/test_acceptance.py``
reads as a checklist.  Tolerances live in the suites themselves; the
assertions here only demand a pass and, where promised, a time budget.
"""

import sys
import time

import pytest

from chernquad import verify


def _emit(result: verify.CheckResult) -> None:
    sys.__stdout__.write(result.line() + "\n")
    sys.__stdout__.flush()
    assert result.passed, result.detail


def test_chern_values_on_reference_surfaces_within_budget():
    start = time.perf_counter()
    result = verify.check_chern_values(0)
    elapsed = time.perf_counter() - start
    _emit(result)
    assert elapsed < 5.0, f"reference Chern computations took {elapsed:.2f}s"


def test_two_form_equals_curvature_density_pointwise():
    _emit(verify.check_curvature_identity(1))


def test_curvature_oracles_agree():
    _emit(verify.check_curvature_oracles(2))


def test_complex_structure_identities_on_random_metrics():
    _emit(verify.check_complex_structure(3))


def test_bundle_isomorphism_intertwines_with_unit_determinant():
    _emit(verify.check_bundle_isomorphism(4))


def test_complex_structure_is_conformally_invariant():
    _emit(verify.check_conformal_invariance(5))


def test_chern_number_is_metric_independent():
    _emit(verify.check_metric_independence(6))


def test_quadrature_convergence_and_exactness():
    _emit(verify.check_quadrature(7))


def test_expression_jets_match_finite_differences():
    _emit(verify.check_expressions(8))


def test_reports_are_byte_identical_across_runs():
    _emit(verify.check_determinism(9))


@pytest.mark.parametrize("verify_seed", [13, 74])
def test_expression_check_passes_on_steep_verify_seeds(verify_seed):
    # `chernquad verify --seed S` runs each suite with seed S + its index;
    # these seeds draw samples where a plain central difference at
    # h = 1e-4 has truncation error above the check's 1e-5 tolerance
    seed = verify_seed + verify.CHECKS.index(verify.check_expressions)
    _emit(verify.check_expressions(seed))
