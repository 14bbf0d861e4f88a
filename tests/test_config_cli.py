"""Config files, overrides, the experiment runner, and the CLI contract."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chernquad
from chernquad import cli, experiment
from chernquad.config import CompareSpec, ExperimentConfig, OutputSpec, load_config
from chernquad.errors import ConfigError

BASE_HEADER = ("surface,n_u,n_v,raw_chern,rounded,residual,"
               "max_curvature_identity_residual")
COMPARE_HEADER = BASE_HEADER + ",raw_chern_prime,delta_raw,stokes_residual,eta_realness_max"


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# --- config loading -----------------------------------------------------------

def test_load_builtin_config(tmp_path):
    path = _write(tmp_path, """
[surface]
kind = torus_revolution
R = 3
r = 1

[quadrature]
n_u = 32
n_v = 32

[output]
format = json
""")
    config = load_config(path)
    assert config.surface_kind == "torus_revolution"
    assert config.surface_params == {"R": 3.0, "r": 1.0}
    assert (config.n_u, config.n_v) == (32, 32)
    assert config.compare is None
    assert config.output.format == "json"


def test_load_custom_rect_config(tmp_path):
    path = _write(tmp_path, """
[surface]
kind = custom
name = stretched
domain = rect
g11 = "2 + sin(u)"
g12 = "0"
g22 = "1"
u_min = 0
u_max = 6.283185307179586
v_min = 0
v_max = 6.283185307179586
periodic_u = true
periodic_v = true
""")
    config = load_config(path)
    assert config.surface_kind == "custom"
    spec = config.custom
    assert spec.name == "stretched" and spec.domain_kind == "rect"
    assert spec.g11 == "2 + sin(u)"
    assert spec.periodic_u and spec.periodic_v
    assert spec.bounds[1] == pytest.approx(2 * math.pi)


def test_overrides_win_over_file_values(tmp_path):
    path = _write(tmp_path, "[surface]\nkind = sphere\nR = 1\n")
    config = load_config(path, overrides=["surface.R=4", "quadrature.n_u=16",
                                          "quadrature.n_v=16"])
    assert config.surface_params["R"] == 4.0
    assert (config.n_u, config.n_v) == (16, 16)


@pytest.mark.parametrize("override", ["no_equals", "nodot=3", "bogus.key=1"])
def test_malformed_overrides_rejected(tmp_path, override):
    path = _write(tmp_path, "[surface]\nkind = sphere\n")
    with pytest.raises(ConfigError):
        load_config(path, overrides=[override])


@pytest.mark.parametrize("text,fragment", [
    ("[surface]\nkind = moebius\n", "unknown kind"),
    ("[surface]\nkind = sphere\nr = 1\n", "unknown key"),
    ("[surfaces]\nkind = sphere\n", "unknown section"),
    ("[surface]\nkind = sphere\n[quadrature]\nn_u = 16\n", "together"),
    ("[surface]\nkind = sphere\n[quadrature]\nn_u = 16\nn_v = 16\nrule_u = simpson\n",
     "rule"),
    ("[surface]\nkind = custom\ng11 = \"1\"\ng12 = \"0\"\n", "g22"),
    ("[surface]\nkind = custom\ng11 = \"1\"\ng12 = \"0\"\ng22 = \"1\"\n"
     "domain = rect\n", "u_min"),
    ("[surface]\nkind = sphere\n[output]\nformat = yaml\n", "format"),
    ("[surface]\nkind = sphere\n[compare]\nmode = conformal\n", "factor"),
])
def test_semantic_errors_name_the_problem(tmp_path, text, fragment):
    path = _write(tmp_path, text)
    with pytest.raises(ConfigError, match=fragment):
        load_config(path)


def test_parse_errors_keep_line_numbers(tmp_path):
    path = _write(tmp_path, "[surface]\nkind = sphere\nthis is not a key line\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert re.search(r"line\s+3", str(err.value))


def test_missing_file_is_config_error():
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config("/nonexistent/exp.cfg")


# --- experiment runner ----------------------------------------------------------

def test_run_reports_base_fields():
    config = ExperimentConfig(surface_kind="sphere", surface_params={"R": 1.0})
    report = experiment.run(config)
    assert report.fieldnames == experiment.BASE_FIELDS
    assert report.row["rounded"] == 2
    assert not report.flagged
    lines = report.to_csv().splitlines()
    assert lines[0] == BASE_HEADER
    assert lines[1].startswith("sphere(R=1),64,128,")


def test_run_compare_adds_fields_and_checks_periodicity():
    config = ExperimentConfig(
        surface_kind="torus_revolution", n_u=32, n_v=32,
        compare=CompareSpec(mode="twist", amplitude=0.3))
    report = experiment.run(config)
    assert report.fieldnames == experiment.BASE_FIELDS + experiment.COMPARE_FIELDS
    assert abs(report.row["delta_raw"]) < 1e-8
    assert report.row["stokes_residual"] < 1e-10

    bad = ExperimentConfig(surface_kind="poincare_octagon",
                           compare=CompareSpec(mode="twist", amplitude=0.3))
    with pytest.raises(ConfigError, match="fully periodic"):
        experiment.run(bad)


def test_run_custom_octagon_recovers_hyperbolic_chern(tmp_path):
    path = _write(tmp_path, """
[surface]
kind = custom
name = hyperbolic_disk_octagon
domain = octagon
g11 = "4/(1 - u^2 - v^2)^2"
g12 = "0"
g22 = "4/(1 - u^2 - v^2)^2"
""")
    report = experiment.run(load_config(path))
    assert report.row["rounded"] == -2
    assert report.row["residual"] < 1e-8
    assert not report.flagged


def test_timings_column_is_opt_in():
    config = ExperimentConfig(surface_kind="flat_torus", n_u=16, n_v=16)
    assert "runtime_ms" not in experiment.run(config).fieldnames
    config.timings = True
    report = experiment.run(config)
    assert report.fieldnames[-1] == "runtime_ms"
    assert report.row["runtime_ms"] > 0.0


def test_report_serialization_is_byte_identical():
    config = ExperimentConfig(
        surface_kind="torus_revolution", n_u=32, n_v=32,
        compare=CompareSpec(mode="perturb", seed=1, amplitude=0.1))
    first = experiment.run(config)
    second = experiment.run(config)
    assert first.to_csv() == second.to_csv()
    assert first.to_json() == second.to_json()
    parsed = json.loads(first.to_json())
    assert parsed["rounded"] == 0


# --- command line ----------------------------------------------------------------

def test_cli_list(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    assert "poincare_octagon" in out and "sphere" in out
    assert "chern" in out.splitlines()[0]


def test_cli_chern_stdout_csv(capsys):
    code = cli.main(["chern", "--surface", "sphere", "--param", "R=1",
                     "--resolution", "32x64"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == BASE_HEADER
    row = lines[1].split(",")
    assert float(row[-4]) == pytest.approx(2.0, abs=1e-6)


def test_cli_chern_json_to_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["chern", "--surface", "poincare_octagon",
                     "--format", "json", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    parsed = json.loads(out.read_text())
    assert parsed["rounded"] == -2


def test_cli_compare_exit_codes(capsys):
    code = cli.main(["compare", "--surface", "torus_revolution",
                     "--mode", "conformal", "--factor", "exp(0.6*sin(u))",
                     "--resolution", "64x64"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == COMPARE_HEADER

    code = cli.main(["compare", "--surface", "poincare_octagon",
                     "--mode", "twist"])
    err = capsys.readouterr().err
    assert code == 1 and "fully periodic" in err


def test_cli_usage_and_config_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["chern"])  # missing required --surface
    assert exc.value.code == 1
    capsys.readouterr()

    assert cli.main(["chern", "--surface", "klein_bottle"]) == 1
    assert "unknown surface kind" in capsys.readouterr().err

    assert cli.main(["chern", "--surface", "sphere", "--resolution", "64"]) == 1
    assert "NUxNV" in capsys.readouterr().err

    assert cli.main(["chern", "--surface", "sphere", "--param", "R"]) == 1
    assert "key=value" in capsys.readouterr().err


def test_cli_grid_dump(tmp_path, capsys):
    grid = tmp_path / "grid.csv"
    code = cli.main(["chern", "--surface", "sphere", "--resolution", "16x16",
                     "--grid-out", str(grid)])
    assert code == 0
    capsys.readouterr()
    lines = grid.read_text().splitlines()
    assert lines[0] == "u,v,k_times_area"
    assert len(lines) == 1 + 16 * 16

    jgrid = tmp_path / "grid.json"
    cli.main(["chern", "--surface", "sphere", "--resolution", "16x16",
              "--grid-out", str(jgrid)])
    capsys.readouterr()
    parsed = json.loads(jgrid.read_text())
    assert set(parsed) == {"u", "v", "k_times_area"}
    assert len(parsed["u"]) == 16 * 16


def test_cli_report_with_overrides(tmp_path, capsys):
    cfg = _write(tmp_path, """
[surface]
kind = sphere
R = 1

[quadrature]
n_u = 16
n_v = 32
""")
    code = cli.main(["report", "--config", cfg, "--set", "surface.R=2",
                     "--set", "output.format=json"])
    assert code == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["surface"] == "sphere(R=2)"
    assert parsed["rounded"] == 2

    code = cli.main(["report", "--config", cfg, "--timings"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0].endswith(",runtime_ms")


def test_cli_runs_are_byte_identical(tmp_path):
    args = ["compare", "--surface", "torus_revolution", "--mode", "perturb",
            "--seed", "3", "--resolution", "32x32"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(first)]) == 0
    assert cli.main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_cli_verify_prints_one_line_per_suite(capsys):
    assert cli.main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) >= 10
    assert all(line.startswith("ok") for line in lines)


# --- bad inputs and field reuse ---------------------------------------------------

_BAD_METRIC_CFG = """
[surface]
kind = custom
name = bad
domain = rect
g11 = "{g11}"
g12 = "0"
g22 = "1"
u_min = 0
u_max = 1
v_min = 0
v_max = 1
"""


@pytest.mark.parametrize("argv,config", [
    (["report"], _BAD_METRIC_CFG.format(g11="exp(800*u)")),  # overflow: NaN curvature
    (["report"], _BAD_METRIC_CFG.format(g11="exp(-800*u)")),  # underflow: not SPD
    (["compare", "--surface", "torus_revolution", "--mode", "conformal",
      "--factor", "sin(u)"], None),  # nonpositive conformal factor
    (["compare", "--surface", "torus_revolution", "--mode", "conformal",
      "--factor", "log(u-10)"], None),  # expression domain error
    (["chern", "--surface", "torus_revolution", "--param", "R=1e200"], None),  # overflow
], ids=["metric_overflow", "metric_not_spd", "nonpositive_factor", "factor_domain",
        "param_overflow"])
def test_bad_inputs_exit_one_without_traceback(argv, config, tmp_path):
    if config is not None:
        argv = argv + ["--config", _write(tmp_path, config)]
    src = str(Path(chernquad.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "chernquad.cli", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("chernquad: error:"), proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def _count_metric_grid_calls(monkeypatch):
    import chernquad.curvature

    calls = []
    original = chernquad.curvature.eval_metric_grid

    def counting(field, us, vs):
        calls.append(np.size(us))
        return original(field, us, vs)

    monkeypatch.setattr(chernquad.curvature, "eval_metric_grid", counting)
    return calls


@pytest.mark.parametrize("argv,expected", [
    (["compare", "--surface", "torus_revolution", "--mode", "conformal",
      "--factor", "exp(0.6*sin(u))"], 2),
    (["compare", "--surface", "torus_revolution", "--mode", "twist"], 2),
    (["chern", "--surface", "torus_revolution"], 1),
], ids=["compare_conformal", "compare_twist", "chern"])
def test_grid_out_ops_evaluate_each_metric_once(argv, expected, tmp_path, monkeypatch,
                                                capsys):
    calls = _count_metric_grid_calls(monkeypatch)
    grid = tmp_path / "grid.csv"
    assert cli.main(argv + ["--resolution", "32x32", "--grid-out", str(grid)]) == 0
    capsys.readouterr()
    assert calls == [32 * 32] * expected
    assert len(grid.read_text().splitlines()) == 1 + 32 * 32


def test_gauss_rule_on_periodic_chart_keeps_the_eta_columns(tmp_path):
    # eta needs the uniform grid; a Gauss spec cannot reuse the Chern
    # samples, so both fields are sampled once more on the trapezoid nodes
    text = """
[surface]
kind = torus_revolution

[quadrature]
n_u = 32
n_v = 32
{rules}
[compare]
mode = conformal
factor = "exp(0.6*sin(u))"
"""
    plain = experiment.run(load_config(_write(tmp_path, text.format(rules=""))))
    gauss = experiment.run(load_config(_write(
        tmp_path, text.format(rules="rule_u = gauss\nrule_v = gauss\n"), "gauss.cfg")))
    assert gauss.row["raw_chern"] != plain.row["raw_chern"]  # the rules did apply
    for name in ("stokes_residual", "eta_realness_max"):
        assert gauss.row[name] == plain.row[name]
