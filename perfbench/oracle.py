"""Per-operation output oracle.

``check`` returns the list of problems found in one operation's output;
an empty list means the operation succeeded.  An operation fails when it
exits nonzero or raises, when its report does not parse, when
``rounded`` differs from the surface's known Chern number, when it is
not converged, when its raw value or identity residual leaves the
accuracy gates below, when a compare row exceeds the tolerances of
``chernquad verify`` (Stokes, hermiticity) or ``|delta_raw| >= 0.01``,
when a grid file has the wrong row count or a non-finite value, and when
a verify suite fails.
"""

from __future__ import annotations

import csv
import io
import json
import math

CONVERGENCE_RESIDUAL = 0.01  # chern.CONVERGENCE_RESIDUAL
DELTA_RAW_TOL = 0.01
STOKES_TOL = 1e-6  # verify.check_metric_independence
REALNESS_TOL = 1e-10  # verify.check_metric_independence

# Accuracy gates.  At the parent commit every benchmark op sits at the
# roundoff floor: |raw - expected| <= 1.2e-14 and the pointwise identity
# residual <= 1.5e-12 (sphere nodes near the poles).  The gates leave
# about three orders of magnitude of headroom, so deliberate numerics
# work passes while a change that trades accuracy for speed does not.
RAW_ABS_TOL = 1e-11
IDENTITY_TOL = 1e-9


def parse_report(text: str) -> dict:
    """One report row (CSV or JSON) as a dict of strings and numbers."""
    stripped = text.strip()
    if stripped.startswith("{"):
        return json.loads(stripped)
    rows = list(csv.reader(io.StringIO(stripped)))
    if len(rows) != 2 or len(rows[0]) != len(rows[1]):
        raise ValueError(f"expected a header and one row, got {len(rows)} rows")
    row = {}
    for name, value in zip(*rows):
        try:
            row[name] = int(value) if name in ("n_u", "n_v", "rounded") else float(value)
        except ValueError:
            row[name] = value
    return row


def _number(row: dict, name: str) -> float:
    value = row[name]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} is not a number: {value!r}")
    return float(value)


def _check_grid(op) -> list[str]:
    with open(op.grid_path, encoding="utf-8") as handle:
        text = handle.read()
    if op.grid_path.endswith(".json"):
        data = json.loads(text)
        columns = [data.get(name) for name in ("u", "v", "k_times_area")]
        if any(not isinstance(col, list) for col in columns):
            return ["grid json lacks u, v or k_times_area"]
        counts = {len(col) for col in columns}
        values = [x for col in columns for x in col]
    else:
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != ["u", "v", "k_times_area"]:
            return [f"grid csv header {rows[:1]}"]
        counts = {len(rows) - 1}
        if any(len(r) != 3 for r in rows[1:]):
            return ["grid csv row without three columns"]
        values = [float(x) for r in rows[1:] for x in r]
    if counts != {op.grid_rows}:
        return [f"grid has {sorted(counts)} rows, expected {op.grid_rows}"]
    if not all(math.isfinite(x) for x in values):
        return ["grid has non-finite values"]
    return []


def check_verify(rc: int, out: str) -> list[str]:
    lines = [line for line in out.splitlines() if line.strip()]
    problems = [f"suite failed: {line}" for line in lines if not line.startswith("ok ")]
    if not lines:
        problems.append("verify printed no suite lines")
    if rc != 0:
        problems.append(f"exit code {rc}")
    return problems


def check(op, rc: int, out: str, accuracy: dict | None = None) -> list[str]:
    """Problems with one op's output; updates ``accuracy`` maxima
    (``chern_abs_err_max``, ``identity_residual_max``) when given."""
    if op.expected_chern is None:
        return check_verify(rc, out)
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    try:
        row = parse_report(out)
        raw = _number(row, "raw_chern")
        residual = _number(row, "residual")
        identity = _number(row, "max_curvature_identity_residual")
        rounded = row["rounded"]
        raws = [raw]
        if op.compare:
            raw_prime = _number(row, "raw_chern_prime")
            delta = _number(row, "delta_raw")
            stokes = _number(row, "stokes_residual")
            realness = _number(row, "eta_realness_max")
            raws.append(raw_prime)
    except (ValueError, KeyError) as exc:  # JSONDecodeError is a ValueError
        return problems + [f"unparseable report: {exc}"]

    if rounded != op.expected_chern:
        problems.append(f"rounded {rounded!r} != expected {op.expected_chern}")
    if not residual < CONVERGENCE_RESIDUAL:
        problems.append(f"not converged: residual {residual!r}")
    err = max(abs(r - op.expected_chern) for r in raws)
    if not err <= RAW_ABS_TOL:
        problems.append(f"|raw - expected| {err!r} > {RAW_ABS_TOL:g}")
    if not identity <= IDENTITY_TOL:
        problems.append(f"identity residual {identity!r} > {IDENTITY_TOL:g}")
    if op.compare:
        if not abs(delta) < DELTA_RAW_TOL:
            problems.append(f"|delta_raw| {delta!r} >= {DELTA_RAW_TOL:g}")
        if not stokes <= STOKES_TOL:
            problems.append(f"stokes residual {stokes!r} > {STOKES_TOL:g}")
        if not realness <= REALNESS_TOL:
            problems.append(f"eta realness {realness!r} > {REALNESS_TOL:g}")
    if op.grid_path:
        try:
            problems += _check_grid(op)
        except (OSError, ValueError) as exc:
            problems.append(f"grid file unreadable: {exc}")
    if accuracy is not None and math.isfinite(err) and math.isfinite(identity):
        accuracy["chern_abs_err_max"] = max(accuracy.get("chern_abs_err_max", 0.0), err)
        accuracy["identity_residual_max"] = max(
            accuracy.get("identity_residual_max", 0.0), identity)
    return problems
