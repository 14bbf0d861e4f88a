"""Run one built experiment and serialize the report.

``run`` only computes and reports: the configuration it takes already
holds the surface, its quadrature and the optional second metric (see
``config``).  A report is a single row of named values: the Chern
computation for the surface, plus comparison columns when a second
metric is given.  Column order is fixed, floats print with 17
significant digits, and summation order upstream is deterministic, so
the same config yields byte-identical CSV or JSON.  ``runtime_ms`` is
opt-in (``timings``) because wall-clock noise would break that
guarantee.

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
from .config import ExperimentConfig
from .curvature import CurvatureSample, connection_difference
from .errors import ConfigError

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
        import json  # here, so that importing the command line does not load it

        parts = []
        for name in self.fieldnames:
            value = self.row[name]
            rendered = (json.dumps(value, ensure_ascii=False) if isinstance(value, str)
                        else _fmt(value))
            parts.append(f'  "{name}": {rendered}')
        return "{\n" + ",\n".join(parts) + "\n}\n"

    def render(self, fmt: str) -> str:
        return self.to_json() if fmt == "json" else self.to_csv()


def run(config: ExperimentConfig) -> Report:
    """Compute and report the experiment ``config`` holds.

    Raises :class:`ConfigError` when the report and the grid dump would
    write one file or a path cannot be written, and a GeometryError or
    ExprError met while evaluating; numerical non-convergence is
    reported in the row and via ``flagged``, never raised.
    """
    output = config.output
    if output.path and output.grid_path and _same_file(output.path, output.grid_path):
        raise ConfigError("[output] path and grid_path name the same file")
    surface, spec, other = config.surface, config.spec, config.other
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

    if other is not None:
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
    """``"%.17g"`` of each value in row order, formatted once per maximal
    run of bitwise-equal consecutive values (so -0.0 stays ``-0``)."""
    values = np.ravel(values)
    bits = values.view(np.int64)
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    text = np.array(["%.17g" % x for x in values[starts].tolist()], dtype=object)
    return np.repeat(text, np.diff(starts, append=values.size)).tolist()


def _write_grid(path: str, sample: CurvatureSample) -> None:
    """K * sqrt(det g) on the quadrature nodes of ``sample``, row by row of
    the node grid, as JSON arrays or CSV rows (numeric fields never need
    CSV quoting).

    ``_format`` formats each run of equal values once: each u of a
    rectangle grid and each row of K * sqrt(det g) on a surface of
    revolution.  A rectangle's v is one row shared by all rows, formatted
    once.  The CSV is one ``%`` on a template of the v strings, repeated
    for each row that shares them and fed the (u, K * sqrt(det g)) strings
    of all nodes, so a rectangle takes no Python-level step per node.
    """
    u_col = _format(np.broadcast_to(sample.us, sample.k_area.shape))
    v_col, k_col = _format(sample.vs), _format(sample.k_area)
    repeats = sample.k_area.size // sample.vs.size  # rows sharing one row of v, or 1
    if path.endswith(".json"):
        cols = (u_col, v_col * repeats, k_col)
        arrays = (f'  "{name}": [{", ".join(col)}]' for name, col in zip(_GRID_FIELDS, cols))
        text = "{\n" + ",\n".join(arrays) + "\n}\n"
    else:
        fields = [""] * (2 * len(k_col))
        fields[::2], fields[1::2] = u_col, k_col
        template = "".join(f"%s,{v},%s\n" for v in v_col) * repeats
        text = ",".join(_GRID_FIELDS) + "\n" + template % tuple(fields)
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
