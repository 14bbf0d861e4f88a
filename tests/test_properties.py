"""Property test: any expression metric ends in a report or a typed error.

Metrics are drawn from ``verify._random_expression`` and widened to the
inputs the curvature kernel must survive: components that overflow, that
are not positive definite, that vanish or divide by zero, and degenerate
rectangles or node counts.  Each example runs ``chernquad report``
in process through ``cli.main``.  It must print one finite report row,
or exactly one stderr line ``chernquad: error: ...`` with exit 1; any
exception escaping ``main`` fails the test.
"""

import contextlib
import io
import math
import os
import tempfile

import numpy as np
import pytest

from chernquad import cli, verify

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


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_configs())
def test_drawn_metrics_end_in_a_report_or_a_typed_error(text):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "drawn.cfg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["report", "--config", path])
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("chernquad: error: "), err.getvalue()
        assert out.getvalue() == ""
        return
    assert code in (0, 2), code  # 2: a finite row that failed the integrality residual
    assert err.getvalue() == ""
    header, row = out.getvalue().splitlines()
    names, values = header.split(","), row.split(",")
    assert values[0] == "drawn" and len(values) == len(names)
    for name, value in zip(names[1:], values[1:]):
        assert math.isfinite(float(value)), (name, value)
