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
its results (see ``chern``).  The grid dump is streamed: it formats each
run of equal values once and writes the file row by row (CSV) or column
by column (JSON), so no text of the whole grid is held.
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


def _json_column(values: np.ndarray) -> list[str]:
    """The JSON array body of the 2-D ``values`` as pieces: a row shared by
    every row is joined once and repeated, a row of one value is one run."""
    if values.strides[0] == 0:
        row = ", ".join(_format(values[0]))
        return [row] + [", " + row] * (values.shape[0] - 1)
    if values.strides[1] == 0:
        n = values.shape[1]
        return [", ".join([f"{text}, " * (n - 1) + text for text in _format(values[:, 0])])]
    return [", ".join(_format(values))]


def _json_pieces(u: np.ndarray, v: np.ndarray, k: np.ndarray):
    """The JSON object of the three columns, one piece at a time."""
    yield "{\n"
    for sep, name, values in zip(("", ",\n", ",\n"), _GRID_FIELDS, (u, v, k)):
        yield f'{sep}  "{name}": ['
        yield from _json_column(values)
        yield "]"
    yield "\n}\n"


def _csv_rows(u: np.ndarray, v: np.ndarray, k: np.ndarray):
    """The CSV header and one text per row of the node grid."""
    yield ",".join(_GRID_FIELDS) + "\n"
    shared = v.strides[0] == 0  # one row of v shared by every row
    if shared and u.strides[1] == k.strides[1] == 0:
        # a surface of revolution: a row is one u, one K * sqrt(det g)
        # and the shared v strings, so one join
        v_text = _format(v[0])
        for u_text, k_text in zip(_format(u[:, 0]), _format(k[:, 0])):
            yield f"{u_text}," + f",{k_text}\n{u_text},".join(v_text) + f",{k_text}\n"
        return
    u_col, v_col, k_col = _format(u), _format(v[:1] if shared else v), _format(k)
    n = k.shape[1]
    fields = [""] * (2 * n)
    for i in range(k.shape[0]):
        row = slice(i * n, (i + 1) * n)
        if i == 0 or not shared:
            template = "".join(f"%s,{x},%s\n" for x in v_col[row])
        fields[::2], fields[1::2] = u_col[row], k_col[row]
        yield template % tuple(fields)


def _write_grid(path: str, sample: CurvatureSample) -> None:
    """K * sqrt(det g) on the quadrature nodes of ``sample``, row by row of
    the node grid, as JSON arrays or CSV rows (numeric fields never need
    CSV quoting), streamed to ``path`` piece by piece.

    Each run of bitwise-equal values is formatted once, and the pieces
    are written as they are made, so no text of the whole grid is
    assembled.  The sample's strides pick each path.  In CSV, where u and
    K * sqrt(det g) do not vary along v and every row shares one row of
    v (a rectangle chart of a surface of revolution), a row is one
    ``join`` over the v strings; otherwise each row is one ``%`` on a
    template of its v strings, fed the (u, K * sqrt(det g)) strings of
    its nodes.  In JSON, a row shared by every row (v on a rectangle) is
    joined once and written once per row, a column constant along each
    row is joined from one run per row, and any other is joined whole.
    """
    k = sample.k_area
    u, v = np.broadcast_to(sample.us, k.shape), np.broadcast_to(sample.vs, k.shape)
    pieces = _json_pieces if path.endswith(".json") else _csv_rows
    write_text(path, pieces(u, v, k))


def _same_file(path: str, other: str) -> bool:
    try:
        return os.path.realpath(path) == os.path.realpath(other)
    except ValueError:  # a NUL byte: write_text reports the path
        return False


def write_text(path: str, text) -> None:
    """Write ``text``, a string or an iterable of string pieces, to
    ``path``; an unwritable path is a ConfigError."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.writelines((text,) if isinstance(text, str) else text)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ConfigError(f"[output] cannot write: {exc}") from None
