"""Programmatic invariant suites behind the ``verify`` subcommand.

Each check exercises one advertised guarantee end to end at its stated
tolerance and returns a pass/fail line; ``run_all`` executes every suite
with seeded randomness so failures reproduce.  The test suite calls the
same functions, so the CLI and CI agree about what "verified" means.

Relative residuals here are |a - b| / (1 + |b|): the +1 floor keeps the
measure meaningful where the reference crosses zero (torus curvature,
flat metrics) while matching plain relative error at large magnitudes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .chern import ChernResult, chern_number, stokes_residual
from .complex_structure import (
    TangentVector,
    area_form,
    bundle_isomorphism,
    complex_structure,
    metric_inner,
    parallelogram_residual,
)
from .config import CompareSpec, ExperimentConfig, OutputSpec
from .curvature import (
    connection_difference,
    curvature_report_grid,
    gauss_curvature,
)
from .expressions import ExprSyntaxError, parse
from .metric import MetricTensor, Point2, eval_metric_jet
from .quadrature import (
    QuadratureSpec,
    build_nodes,
    domain_measure,
    integrate_scalar,
    reduce_sum,
)
from .zoo import Surface, conformal_surface, flat_torus, poincare_octagon, torus_revolution
from . import experiment, zoo


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "ok  " if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail}"


def _zoo() -> tuple[Surface, ...]:
    return tuple(constructor() for constructor, _ in zoo.BUILTIN_KINDS.values())


def _rel(a, b) -> np.ndarray:
    return np.abs(a - b) / (1.0 + np.abs(b))


def _random_spd(rng) -> MetricTensor:
    # lower-triangular square root keeps the det well away from zero
    l11 = math.exp(rng.normal(0.0, 0.6))
    l22 = math.exp(rng.normal(0.0, 0.6))
    l21 = rng.normal(0.0, 0.7)
    return MetricTensor(g11=l11 * l11, g12=l11 * l21, g22=l21 * l21 + l22 * l22)


def _random_vector(rng) -> TangentVector:
    return TangentVector(rng.normal(0.0, 1.0), rng.normal(0.0, 1.0))


def check_chern_values(seed: int) -> CheckResult:
    worst = 0.0
    # at the reference resolutions; tolerances in the order of _zoo()
    for surf, tol in zip(_zoo(), (1e-6, 1e-8, 1e-14, 1e-3)):
        res = chern_number(surf)
        target = surf.expected_chern
        gap = abs(res.raw - target)
        worst = max(worst, gap / tol)
        if gap > tol or res.rounded != int(target):
            return CheckResult("chern_values", False,
                               f"{surf.name}: raw {res.raw!r} not within {tol:g} of {target:g}")
    return CheckResult("chern_values", True,
                       f"four surfaces at reference; worst gap {worst:.2e} of tolerance")


def check_curvature_identity(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for surf in _zoo():
        us, vs = surf.domain.sample_interior(rng, 100)
        worst = max(worst, curvature_report_grid(surf.field, us, vs).identity_residual())
    passed = worst < 1e-5
    return CheckResult("curvature_identity", passed,
                       f"max |two_form - K*area| residual {worst:.2e} (tol 1e-5)")


def check_curvature_oracles(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst_pair = 0.0
    worst_analytic = 0.0
    for surf in _zoo():
        us, vs = surf.domain.sample_interior(rng, 100)
        k = curvature_report_grid(surf.field, us, vs).k
        k_c = np.array([gauss_curvature(surf.field, Point2(u, v)) for u, v in zip(us, vs)])
        worst_pair = max(worst_pair, float(np.max(_rel(k, k_c))))
        if surf.analytic_k is not None:
            worst_analytic = max(worst_analytic,
                                 float(np.max(_rel(k, surf.analytic_k(us, vs)))))
    passed = worst_pair < 1e-6 and worst_analytic < 1e-6
    return CheckResult("curvature_oracles", passed,
                       f"Brioschi grid vs Christoffel {worst_pair:.2e}, "
                       f"vs closed forms {worst_analytic:.2e} (tol 1e-6)")


def check_complex_structure(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(1000):
        g = _random_spd(rng)
        x, y = _random_vector(rng), _random_vector(rng)
        j = complex_structure(g)
        jx, jy = j(x), j(y)
        defining = abs(metric_inner(g, jx, y) - area_form(g)(x, y))
        square = float(np.max(np.abs(j.m @ j.m + np.eye(2))))
        isometry = abs(metric_inner(g, jx, jy) - metric_inner(g, x, y))
        skew = abs(metric_inner(g, jx, y) + metric_inner(g, x, jy))
        para = parallelogram_residual(g, x, y)
        worst = max(worst, defining, square, isometry, skew, para)
    return CheckResult("complex_structure", worst < 1e-10,
                       f"1000 SPD samples; worst of defining/square/isometry/"
                       f"skew/parallelogram {worst:.2e} (tol 1e-10)")


def check_bundle_isomorphism(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    commute = 0.0
    min_det = math.inf
    for _ in range(1000):
        j = complex_structure(_random_spd(rng))
        j_prime = complex_structure(_random_spd(rng))
        phi = bundle_isomorphism(j, j_prime)
        commute = max(commute, float(np.max(np.abs(phi @ j.m - j_prime.m @ phi))))
        min_det = min(min_det, float(np.linalg.det(phi)))
    passed = commute < 1e-12 and min_det >= 1.0 - 1e-12
    return CheckResult("bundle_isomorphism", passed,
                       f"1000 pairs; |phi j - j' phi| {commute:.2e} (tol 1e-12), "
                       f"min det {min_det:.15f}")


def check_conformal_invariance(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    from .metric import conformal_scale, scalar_field_from_expression

    surf = torus_revolution(2.0, 1.0)
    worst_j = 0.0
    for _ in range(5):
        a = rng.uniform(-0.8, 0.8)
        b = rng.uniform(-0.8, 0.8)
        text = f"exp({a!r}*sin(u) + {b!r}*cos(v))"
        scaled = conformal_scale(surf.field, scalar_field_from_expression(text))
        us, vs = surf.domain.sample_interior(rng, 200)
        for u, v in zip(us, vs):
            p = Point2(float(u), float(v))
            j = complex_structure(eval_metric_jet(surf.field, p).value)
            j_f = complex_structure(eval_metric_jet(scaled, p).value)
            worst_j = max(worst_j, float(np.max(np.abs(j.m - j_f.m))))

    res, res_f = _torus_and_rescaling()
    delta = abs(res.raw - res_f.raw)
    passed = worst_j < 1e-12 and delta < 1e-6
    return CheckResult("conformal_invariance", passed,
                       f"j entrywise {worst_j:.2e} (tol 1e-12), "
                       f"torus Chern delta {delta:.2e} (tol 1e-6)")


@functools.lru_cache(maxsize=1)
def _torus_and_rescaling() -> tuple[ChernResult, ChernResult]:
    """The 128^2 torus and its exp(0.6*sin(u)) rescaling, read by two checks."""
    base = torus_revolution(2.0, 1.0)
    spec = QuadratureSpec(128, 128)
    return (chern_number(base, spec=spec),
            chern_number(conformal_surface(base, "exp(0.6*sin(u))"), spec=spec))


def check_metric_independence(seed: int) -> CheckResult:
    res, res_conformal = _torus_and_rescaling()
    base = torus_revolution(2.0, 1.0)
    perturbed, twisted = (
        chern_number(experiment.derived_surface(base, CompareSpec.for_mode(mode)),
                     spec=res.sample.spec)
        for mode in ("perturb", "twist"))
    others = (("conformal", res_conformal), ("perturbed", perturbed), ("twisted", twisted))
    details = []
    passed = True
    for label, res_p in others:
        eta = connection_difference(res.sample, res_p.sample)
        stokes = stokes_residual(eta, base.domain)
        delta = abs(res_p.raw - res.raw)
        ok = (res_p.rounded == res.rounded == 0 and delta < 1e-5
              and stokes < 1e-6 and eta.imag_max < 1e-10)
        passed = passed and ok
        details.append(f"{label}: delta {delta:.1e}, stokes {stokes:.1e}, "
                       f"imag {eta.imag_max:.1e}")
    return CheckResult("metric_independence", passed, "; ".join(details))


def check_quadrature(seed: int) -> CheckResult:
    problems = []
    from .zoo import octagon_vertices
    from .metric import PolygonDomain, RectDomain

    domains = (
        flat_torus(1.0, 1.0).domain,
        RectDomain(0.0, 1.0, -1.0, 2.0),
        PolygonDomain(octagon_vertices()),
    )
    for dom in domains:
        us, vs, ws = build_nodes(dom, QuadratureSpec(16, 16))
        if ws.min() <= 0.0:
            problems.append(f"nonpositive weight on {type(dom).__name__}")
        rel = abs(reduce_sum(ws) - domain_measure(dom)) / domain_measure(dom)
        if rel > 1e-12:
            problems.append(f"weight sum off by {rel:.2e}")

    dom = flat_torus(1.0, 1.0).domain
    val = integrate_scalar(lambda u, v: np.sin(u) ** 2, dom,
                           QuadratureSpec(64, 64))
    if abs(val - 2.0 * math.pi ** 2) > 1e-12:
        problems.append(f"sin^2 integral off by {val - 2.0 * math.pi ** 2:.2e}")

    oct_surf = poincare_octagon()
    res_c = chern_number(oct_surf, spec=QuadratureSpec(8, 8)).residual
    res_f = chern_number(oct_surf, spec=QuadratureSpec(16, 16)).residual
    factor = res_c / max(res_f, 1e-300)
    if factor < 4.0:
        problems.append(f"octagon doubling factor {factor:.2f} < 4")

    if problems:
        return CheckResult("quadrature", False, "; ".join(problems))
    return CheckResult("quadrature", True,
                       f"weights positive and sum to measure; sin^2 exact; "
                       f"octagon doubling factor {factor:.1e}")


def check_expressions(seed: int) -> CheckResult:
    from .expressions import eval_jet

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(500):
        text = _random_expression(rng, depth=3)
        ast = parse(text)
        u = float(rng.uniform(-1.5, 1.5))
        v = float(rng.uniform(-1.5, 1.5))
        jet = eval_jet(ast, u, v)
        fd = _richardson_jet(lambda uu, vv: eval_jet(ast, uu, vv).val, u, v)
        for got, ref in zip(
                (jet.val, jet.du, jet.dv, jet.duu, jet.duv, jet.dvv), fd):
            worst = max(worst, abs(got - ref) / (1.0 + abs(ref)))
    if worst >= 1e-5:
        return CheckResult("expressions", False,
                           f"jet vs finite differences residual {worst:.2e}")

    for text, offset in (("u +", 3), ("", 0), ("sin(", 4), ("2*)", 2)):
        try:
            parse(text)
        except ExprSyntaxError as exc:
            if exc.offset != offset:
                return CheckResult("expressions", False,
                                   f"{text!r}: offset {exc.offset} != {offset}")
        else:
            return CheckResult("expressions", False, f"{text!r} parsed but should not")
    return CheckResult("expressions", True,
                       f"500 samples vs finite differences, residual {worst:.2e} "
                       f"(tol 1e-5); malformed inputs rejected with offsets")


def check_determinism(seed: int) -> CheckResult:
    config = ExperimentConfig(
        surface_kind="torus_revolution", surface_params={"R": 2.0, "r": 1.0},
        n_u=32, n_v=32,
        compare=CompareSpec(mode="perturb", seed=3, amplitude=0.05),
        output=OutputSpec(format="csv"))
    first = experiment.run(config)
    second = experiment.run(config)
    same = (first.to_csv() == second.to_csv()
            and first.to_json() == second.to_json())
    return CheckResult("determinism", same,
                       "repeated runs render byte-identical CSV and JSON"
                       if same else "renders differ between runs")


def _richardson_jet(f: Callable, u: float, v: float, h: float = 1e-3):
    """Central differences at h and h/2, Richardson-extrapolated to cancel
    their O(h^2) truncation error (at h = 1e-4 alone it reaches 1e-5)."""
    coarse, fine = _fd_jet(f, u, v, h), _fd_jet(f, u, v, h / 2.0)
    return tuple(b + (b - a) / 3.0 for a, b in zip(coarse, fine))


def _fd_jet(f: Callable, u: float, v: float, h: float = 1e-4):
    f00 = f(u, v)
    fu1, fu2 = f(u + h, v), f(u - h, v)
    fv1, fv2 = f(u, v + h), f(u, v - h)
    fpp, fpm = f(u + h, v + h), f(u + h, v - h)
    fmp, fmm = f(u - h, v + h), f(u - h, v - h)
    return (
        f00,
        (fu1 - fu2) / (2 * h),
        (fv1 - fv2) / (2 * h),
        (fu1 - 2 * f00 + fu2) / (h * h),
        (fpp - fpm - fmp + fmm) / (4 * h * h),
        (fv1 - 2 * f00 + fv2) / (h * h),
    )


_ATOMS = ("u", "v", "pi", None)  # None draws a literal


def _random_expression(rng, depth: int) -> str:
    """Bounded generator staying inside every function's domain, so the
    finite-difference oracle never steps over a singularity."""
    if depth == 0 or rng.uniform() < 0.25:
        atom = _ATOMS[rng.integers(len(_ATOMS))]
        if atom is None:
            return format(float(rng.uniform(0.3, 2.5)), ".3f")
        return atom
    a = _random_expression(rng, depth - 1)
    b = _random_expression(rng, depth - 1)
    pick = rng.integers(8)
    if pick == 0:
        return f"({a} + {b})"
    if pick == 1:
        return f"({a} - {b})"
    if pick == 2:
        return f"({a} * {b})"
    if pick == 3:
        return f"({a} / (2 + cos({b})))"
    if pick == 4:
        return f"sin({a})"
    if pick == 5:
        return f"cos({a})"
    if pick == 6:
        return f"exp(sin({a}))"
    return f"sqrt(2 + sin({a}))"


CHECKS: tuple[Callable[[int], CheckResult], ...] = (
    check_chern_values,
    check_curvature_identity,
    check_curvature_oracles,
    check_complex_structure,
    check_bundle_isomorphism,
    check_conformal_invariance,
    check_metric_independence,
    check_quadrature,
    check_expressions,
    check_determinism,
)


def run_all(seed: int = 0) -> list[CheckResult]:
    """Every invariant suite, seeded; order is fixed."""
    return [check(seed + index) for index, check in enumerate(CHECKS)]


def all_pass(results) -> bool:
    return all(r.passed for r in results)
