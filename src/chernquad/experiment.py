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
import os
import time
from dataclasses import dataclass

import numpy as np

from .chern import chern_number, stokes_residual
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
        return PolygonDomain(octagon_vertices())
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
        return QuadratureSpec(n_u, n_v)
    except ValueError as exc:
        raise ConfigError(f"[quadrature] {exc}") from None


def derived_surface(base: Surface, compare) -> Surface:
    """The second surface of a comparison; its errors become ConfigError."""
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
    output = config.output
    if output.path and output.grid_path and _same_file(output.path, output.grid_path):
        raise ConfigError("[output] path and grid_path name the same file")
    surface = build_surface(config)
    spec = _quadrature_spec(config, surface)
    if config.compare is not None and not (isinstance(surface.domain, RectDomain)
                                           and surface.domain.fully_periodic):
        raise ConfigError("[compare] comparison requires a fully periodic domain")
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
        other = derived_surface(surface, config.compare)
        result_prime = chern_number(other, spec=spec)
        eta = connection_difference(result.sample, result_prime.sample)
        fieldnames = BASE_FIELDS + COMPARE_FIELDS
        row["raw_chern_prime"] = result_prime.raw
        row["delta_raw"] = result_prime.raw - result.raw
        row["stokes_residual"] = stokes_residual(eta, surface.domain)
        row["eta_realness_max"] = eta.imag_max
        flagged = flagged or not result_prime.converged

    if config.timings:
        fieldnames = fieldnames + ("runtime_ms",)
        row["runtime_ms"] = (time.perf_counter() - start) * 1000.0

    if output.grid_path:
        _write_grid(output.grid_path, result.sample)

    return Report(fieldnames=fieldnames, row=row, flagged=flagged)


def _format(values: np.ndarray) -> list[str]:
    return ["%.17g" % x for x in values.tolist()]


def _write_grid(path: str, sample: CurvatureSample) -> None:
    """K * sqrt(det g) on the quadrature nodes of ``sample``, as JSON
    arrays or CSV rows (numeric fields never need CSV quoting).  The
    nodes of a rectangle chart are a u-major product grid, so each
    distinct u and v is formatted once and repeated; polygon nodes are
    formatted one by one."""
    k_col = _format(sample.k_area)
    if isinstance(sample.domain, RectDomain):
        n_u, n_v = sample.spec.n_u, sample.spec.n_v
        u_col = [u for u in _format(sample.us[::n_v]) for _ in range(n_v)]
        v_col = _format(sample.vs[:n_v]) * n_u
    else:
        u_col, v_col = _format(sample.us), _format(sample.vs)
    if path.endswith(".json"):
        arrays = (f'  "{name}": [{", ".join(col)}]'
                  for name, col in zip(_GRID_FIELDS, (u_col, v_col, k_col)))
        text = "{\n" + ",\n".join(arrays) + "\n}\n"
    else:
        text = ",".join(_GRID_FIELDS) + "\n" + "".join(
            f"{u},{v},{k}\n" for u, v, k in zip(u_col, v_col, k_col))
    write_text(path, text)


def _same_file(path: str, other: str) -> bool:
    try:
        return os.path.realpath(path) == os.path.realpath(other)
    except ValueError:  # a NUL byte: write_text reports the path
        return False


def write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path``; an unwritable path is a ConfigError."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ConfigError(f"[output] cannot write: {exc}") from None
