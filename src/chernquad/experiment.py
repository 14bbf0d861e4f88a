"""Run one configured experiment and serialize the report.

A report is a single row of named values: the Chern computation for the
configured surface, plus comparison columns when a second metric is
requested.  Column order is fixed, floats print with 17 significant
digits, and summation order upstream is deterministic, so the same
config yields byte-identical CSV or JSON.  ``runtime_ms`` is opt-in
(``timings``) because wall-clock noise would break that guarantee.

Each metric is evaluated once per node set: the comparison columns and
the grid dump read the curvature samples that ``chern_number`` keeps in
its results (see ``chern``).
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass

import numpy as np

from .chern import chern_number, curvature_sample, stokes_residual
from .config import CustomSurfaceSpec, ExperimentConfig
from .curvature import CurvatureSample, connection_difference
from .errors import ConfigError
from .metric import PolygonDomain, RectDomain
from .quadrature import QuadratureSpec
from .zoo import (
    Surface,
    conformal_surface,
    custom_surface,
    make_surface,
    octagon_vertices,
    perturbed_surface,
    twisted_surface,
)

BASE_FIELDS = ("surface", "n_u", "n_v", "raw_chern", "rounded", "residual",
               "max_curvature_identity_residual")
COMPARE_FIELDS = ("raw_chern_prime", "delta_raw", "stokes_residual",
                  "eta_realness_max")

_GRID_FIELDS = ("u", "v", "k_times_area")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


@dataclass
class Report:
    """One experiment row plus serialization helpers."""

    fieldnames: tuple[str, ...]
    row: dict
    flagged: bool  # some Chern result failed the integrality residual

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.fieldnames)
        writer.writerow([_fmt(self.row[name]) for name in self.fieldnames])
        return buf.getvalue()

    def to_json(self) -> str:
        parts = []
        for name in self.fieldnames:
            value = self.row[name]
            rendered = f'"{value}"' if isinstance(value, str) else _fmt(value)
            parts.append(f'  "{name}": {rendered}')
        return "{\n" + ",\n".join(parts) + "\n}\n"

    def render(self, fmt: str) -> str:
        return self.to_json() if fmt == "json" else self.to_csv()


def _custom_domain(spec: CustomSurfaceSpec):
    if spec.domain_kind == "octagon":
        return PolygonDomain(octagon_vertices(), geodesic_edges=True)
    u0, u1, v0, v1 = spec.bounds
    try:
        return RectDomain(u0, u1, v0, v1,
                          periodic_u=spec.periodic_u, periodic_v=spec.periodic_v)
    except ValueError as exc:
        raise ConfigError(f"[surface] {exc}") from None


def build_surface(config: ExperimentConfig) -> Surface:
    try:
        if config.custom is not None:
            spec = config.custom
            return custom_surface(spec.name, _custom_domain(spec),
                                  spec.g11, spec.g12, spec.g22)
        return make_surface(config.surface_kind, config.surface_params)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"[surface] {exc}") from None


def _quadrature_spec(config: ExperimentConfig, surface: Surface) -> QuadratureSpec:
    n_u, n_v = surface.reference_resolution
    if config.n_u is not None:
        n_u, n_v = config.n_u, config.n_v
    try:
        spec = QuadratureSpec.for_domain(surface.domain, n_u, n_v)
        if config.rule_u or config.rule_v:
            spec = QuadratureSpec(n_u, n_v,
                                  rule_u=config.rule_u or spec.rule_u,
                                  rule_v=config.rule_v or spec.rule_v)
    except ValueError as exc:
        raise ConfigError(f"[quadrature] {exc}") from None
    return spec


def _derived_surface(base: Surface, compare) -> Surface:
    try:
        if compare.mode == "conformal":
            return conformal_surface(base, compare.factor)
        if compare.mode == "perturb":
            return perturbed_surface(base, compare.seed, compare.amplitude)
        return twisted_surface(base, compare.amplitude)
    except Exception as exc:
        raise ConfigError(f"[compare] {exc}") from None


def run(config: ExperimentConfig) -> Report:
    """Execute the experiment described by ``config``.

    Raises :class:`ConfigError` for semantic config problems, and a
    GeometryError or ExprError met while evaluating; numerical
    non-convergence is reported in the row and via ``flagged``, never
    raised.
    """
    surface = build_surface(config)
    spec = _quadrature_spec(config, surface)
    start = time.perf_counter()

    result = chern_number(surface, spec=spec)
    fieldnames = BASE_FIELDS
    row = {
        "surface": surface.name,
        "n_u": spec.n_u,
        "n_v": spec.n_v,
        "raw_chern": result.raw,
        "rounded": result.rounded,
        "residual": result.residual,
        "max_curvature_identity_residual": result.max_identity_residual,
    }
    flagged = not result.converged

    if config.compare is not None:
        domain = surface.domain
        if not (isinstance(domain, RectDomain) and domain.fully_periodic):
            raise ConfigError("[compare] comparison requires a fully periodic domain")
        other = _derived_surface(surface, config.compare)
        result_prime = chern_number(other, spec=spec)
        samples = (result.sample, result_prime.sample)
        eta_spec = QuadratureSpec.for_domain(domain, spec.n_u, spec.n_v)
        if spec != eta_spec:  # a Gauss rule on a periodic axis; eta needs the uniform grid
            samples = (curvature_sample(surface.field, eta_spec),
                       curvature_sample(other.field, eta_spec))
        eta = connection_difference(*samples)
        fieldnames = BASE_FIELDS + COMPARE_FIELDS
        row["raw_chern_prime"] = result_prime.raw
        row["delta_raw"] = result_prime.raw - result.raw
        row["stokes_residual"] = stokes_residual(eta, domain)
        row["eta_realness_max"] = eta.imag_max
        flagged = flagged or not result_prime.converged

    if config.timings:
        fieldnames = fieldnames + ("runtime_ms",)
        row["runtime_ms"] = (time.perf_counter() - start) * 1000.0

    if config.output.grid_path:
        _write_grid(config.output.grid_path, result.sample)

    return Report(fieldnames=fieldnames, row=row, flagged=flagged)


def _write_grid(path: str, sample: CurvatureSample) -> None:
    """K * sqrt(det g) on the quadrature nodes of ``sample``."""
    us, vs, k_area = sample.us, sample.vs, sample.k_area
    if path.endswith(".json"):
        arrays = []
        for name, values in zip(_GRID_FIELDS, (us, vs, k_area)):
            body = ", ".join(format(float(x), ".17g") for x in values)
            arrays.append(f'  "{name}": [{body}]')
        text = "{\n" + ",\n".join(arrays) + "\n}\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_GRID_FIELDS)
        for u, v, k in zip(us, vs, k_area):
            writer.writerow([format(float(u), ".17g"), format(float(v), ".17g"),
                             format(float(k), ".17g")])
        text = buf.getvalue()
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
