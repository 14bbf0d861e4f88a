"""Property tests: any drawn input ends in a report or a typed error.

Two strategies feed ``cli.main`` in process.  The first draws expression
metrics from ``verify._random_expression``, widened to the inputs the
curvature kernel must survive: components that overflow, that are not
positive definite, that vanish or divide by zero, and degenerate
rectangles or node counts; each runs ``chernquad report``.  The second
draws ``chern`` and ``compare`` flags: builtin kinds with their
parameters, node counts, compare modes with the factor, seed and
amplitude they read, the output format and ``--out``/``--grid-out``
paths.  About one example in four puts one bad value in one of them: a
parameter that is nan, infinite, negative or huge, a node count too
small or past what numpy can index, a chart that cannot be compared, a
path that is not writable, a compare flag the mode does not read (which
must end in a typed error), and so on; most other examples reach a
report.  Each example must print one finite report row, or
exactly one stderr line ``chernquad: error: ...`` with exit 1 and an
empty stdout; any exception escaping ``main`` fails the test.
"""

import contextlib
import csv
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest

from chernquad import cli, verify, zoo

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# how a drawn expression e becomes a metric component
_WRAPS = (
    "exp(sin({e}))",  # positive, smooth
    "2 + {e}",
    "{e}",  # may be negative: not SPD
    "-({e})",
    "exp(800*({e}))",  # overflows to inf
    "1e300*(2 + sin({e}))",  # det g overflows
    "1e-300*({e})^2",  # det underflows: degenerate
    "({e}) - ({e})",  # exactly zero
    "1/(({e}) - ({e}))",  # division by zero
    "sqrt({e} - 1)",  # sqrt out of its domain somewhere
    "log({e})",
)
_OFF_DIAGONAL = ("0", "0.3*sin({e})", "{e}", "exp(600*({e}))",
                 "(1 - 1e-9*(2 + sin({e})))*sqrt(({g11})*({g22}))")  # det g near 0


@st.composite
def _configs(draw):
    def component(wraps):
        seed = draw(st.integers(0, 2 ** 32 - 1))
        expr = verify._random_expression(np.random.default_rng(seed), depth=3)
        return draw(st.sampled_from(wraps)).replace("{e}", expr)

    g11, g22 = component(_WRAPS), component(_WRAPS)
    g12 = component(_OFF_DIAGONAL).replace("{g11}", g11).replace("{g22}", g22)
    if draw(st.integers(0, 2)) == 0:
        domain = "domain = octagon"
    else:
        u_min = draw(st.sampled_from((0.0, -1.0, 0.5)))
        width = draw(st.sampled_from((2 * math.pi, 2 * math.pi, 1.0, 0.0, -1.0)))  # 0, -1: degenerate
        periodic = draw(st.booleans())
        domain = (f"domain = rect\nu_min = {u_min!r}\nu_max = {u_min + width!r}\n"
                  f"v_min = 0.0\nv_max = {2 * math.pi!r}\n"
                  f"periodic_u = {periodic}\nperiodic_v = {periodic}")
    n = draw(st.sampled_from((8, 8, 12, 16, 4)))  # 4 is below the minimum
    compare = draw(st.sampled_from(("", "mode = twist", "mode = perturb",
                                    'mode = conformal\nfactor = "exp(sin(u))"')))
    return (f'[surface]\nkind = custom\nname = drawn\n{domain}\n'
            f'g11 = "{g11}"\ng12 = "{g12}"\ng22 = "{g22}"\n'
            f"[quadrature]\nn_u = {n}\nn_v = {n}\n"
            + (f"[compare]\n{compare}\n" if compare else ""))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("chernquad: error: "), err.getvalue()
        assert out.getvalue() == ""
    else:
        assert code in (0, 2), code  # 2: a finite row that failed the integrality residual
        assert err.getvalue() == ""
    return code, out.getvalue()


def _assert_finite_row(text, fmt="csv"):
    """The report's surface name, and every other value finite."""
    if fmt == "json":
        row = json.loads(text)
        names, values = list(row), [str(v) for v in row.values()]
    else:
        names, values = csv.reader(io.StringIO(text))
    assert names[0] == "surface" and len(values) == len(names)
    for name, value in zip(names[1:], values[1:]):
        assert math.isfinite(float(value)), (name, value)
    return values[0]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_configs())
def test_drawn_metrics_end_in_a_report_or_a_typed_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "drawn.cfg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        code, out = _run(["report", "--config", path])
    if code != 1:
        assert _assert_finite_row(out) == "drawn"


# (usual, bad) choices per flag.  About one example in four takes a bad
# value, in one flag drawn once per example, so that the others reach the
# report path of every mode.  Bad node counts are too small or past what
# numpy can index, never merely large, which would allocate for real
# before failing.
_VALUES = (("0.5", "1", "3"), ("nan", "inf", "-inf", "-1", "0", "1e200"))
_RESOLUTIONS = ((None, "8x8", "16x12", "32x16"),
                ("4x16", "8x0", "99999999999999999999x8", "4611686018427387904x8",
                 "8x4611686018427387904"))
_FACTORS = (("exp(0.6*sin(u))", "2+cos(v)", "exp(0.3*cos(u+v))"),
            ("sin(u)", "log(u-10)", "exp(800*sin(u))", ""))
_AMPLITUDES = ((None, "0.1", "0.5", "-0.3"), _VALUES[1] + ("1e8",))
_SEEDS = ((None, "0", "7"), ("-1", str(2 ** 70)))
_STRAY_FLAGS = {"factor": "2", "amplitude": "0.1", "seed": "5"}
# output files, inside the test's temporary directory; "." is the directory,
# and a grid dump to out.csv names the same file as --out whenever that is out.csv
_OUT_PATHS = (("", "out.csv", "out.json"), ("missing/out.csv", "."))
_GRID_PATHS = (("", "grid.csv", "grid.json"), ("missing/grid.csv", ".", "out.csv"))
# a comparison needs a fully periodic chart
_KINDS = (("torus_revolution", "flat_torus"), ("sphere", "poincare_octagon"))
# where the one bad value goes; "stray" is a compare flag the mode does not read
_BAD = ("kind", "param", "resolution", "factor", "amplitude", "seed", "out", "grid_out",
        "stray")


@st.composite
def _argvs(draw):
    """(argv, --out, --grid-out, --format, stray) for a chern or compare run;
    stray: a compare flag the mode does not read was drawn."""
    bad = draw(st.sampled_from(_BAD)) if draw(st.integers(0, 3)) == 3 else None

    def pick(flag, choices):
        usual, bad_values = choices
        return draw(st.sampled_from(bad_values if flag == bad else usual))

    command = draw(st.sampled_from(("chern", "compare")))
    kind = (draw(st.sampled_from(_KINDS[0] + _KINDS[1])) if command == "chern"
            else pick("kind", _KINDS))
    argv = [command, "--surface", kind]
    for key in zoo.BUILTIN_KINDS[kind][1]:
        if draw(st.booleans()):
            argv += ["--param", f"{key}={pick('param', _VALUES)}"]
    resolution = pick("resolution", _RESOLUTIONS)
    if resolution:
        argv += ["--resolution", resolution]
    unread = ()  # the compare flags the mode does not read
    if argv[0] == "compare":
        mode = draw(st.sampled_from(("twist", "perturb", "conformal")))
        argv += ["--mode", mode]
        # every flag is drawn, and those the mode reads are given
        drawn = {"factor": pick("factor", _FACTORS),
                 "amplitude": pick("amplitude", _AMPLITUDES), "seed": pick("seed", _SEEDS)}
        unread = sorted(set(drawn) - set(zoo.COMPARE_MODES[mode][1]))
        argv += [f"--{key}={value}"  # one word, or argparse takes "-inf" for an option
                 for key, value in drawn.items() if key not in unread and value is not None]
    fmt = draw(st.sampled_from(("csv", "json")))
    paths = pick("out", _OUT_PATHS), pick("grid_out", _GRID_PATHS)
    stray = bool(unread) and bad == "stray"  # config rejects it
    if stray:
        key = draw(st.sampled_from(unread))
        argv.append(f"--{key}={_STRAY_FLAGS[key]}")
    return argv + ["--format", fmt], *paths, fmt, stray


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_argvs())
def test_drawn_flags_end_in_a_report_or_a_typed_error(drawn):
    argv, out_path, grid_path, fmt, stray = drawn
    with tempfile.TemporaryDirectory() as tmp:
        if out_path:
            argv += ["--out", os.path.join(tmp, out_path)]
        if grid_path:
            argv += ["--grid-out", os.path.join(tmp, grid_path)]
        code, out = _run(argv)
        assert code == 1 or not stray, argv
        if code == 1:
            return
        if out_path:
            assert out == ""
            with open(os.path.join(tmp, out_path), encoding="utf-8") as handle:
                out = handle.read()
        _assert_finite_row(out, fmt)
        if grid_path:
            assert os.path.getsize(os.path.join(tmp, grid_path)) > 0
