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
from chernquad import cli, experiment, zoo
from chernquad.config import CompareSpec, ExperimentConfig, OutputSpec, load_config
from chernquad.errors import ConfigError

BASE_HEADER = ("surface,n_u,n_v,raw_chern,rounded,residual,"
               "max_curvature_identity_residual")
COMPARE_HEADER = BASE_HEADER + ",raw_chern_prime,delta_raw,stokes_residual,eta_realness_max"


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _subprocess_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(chernquad.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


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
    ("[surface]\nkind = sphere\n[quadrature]\nn_u = 16\nn_v = 16\nrule_u = gauss\n",
     "unknown key"),
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
    assert capsys.readouterr().out == (
        "kind              params  reference  chern\n"
        "flat_torus        a, b    64x64      0\n"
        "poincare_octagon  -       32x32      -2\n"
        "sphere            R       64x128     2\n"
        "torus_revolution  R, r    128x128    0\n")


@pytest.mark.parametrize("kind", sorted(zoo.BUILTIN_KINDS))
def test_builtin_kind_reads_the_same_from_flags_and_config(kind, tmp_path, capsys):
    assert cli.main(["chern", "--surface", kind, "--resolution", "16x16"]) == 0
    from_flags = capsys.readouterr().out
    cfg = _write(tmp_path, f"[surface]\nkind = {kind}\n[quadrature]\nn_u = 16\nn_v = 16\n")
    assert cli.main(["report", "--config", cfg]) == 0
    assert capsys.readouterr().out == from_flags

    assert cli.main(["chern", "--surface", kind, "--param", "bogus=1"]) == 1
    assert "unknown parameters" in capsys.readouterr().err
    assert cli.main(["report", "--config", cfg, "--set", "surface.bogus=1"]) == 1
    assert "[surface] unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("mode,explicit", [
    ("perturb", ["--seed", "1", "--amplitude", "0.1"]),
    ("twist", ["--amplitude", "0.3"]),
])
def test_compare_defaults_agree_between_flags_and_config(mode, explicit, tmp_path, capsys):
    argv = ["compare", "--surface", "torus_revolution", "--mode", mode,
            "--resolution", "32x32"]
    assert cli.main(argv) == 0
    from_flags = capsys.readouterr().out
    assert cli.main(argv + explicit) == 0
    assert capsys.readouterr().out == from_flags
    cfg = _write(tmp_path, "[surface]\nkind = torus_revolution\n"
                           f"[quadrature]\nn_u = 32\nn_v = 32\n[compare]\nmode = {mode}\n")
    assert cli.main(["report", "--config", cfg]) == 0
    assert capsys.readouterr().out == from_flags


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
    (["compare", "--surface", "torus_revolution", "--mode", "perturb",
      "--amplitude", "1e300"], None),  # SPD probe overflows
    (["chern", "--surface", "sphere", "--grid-out", "/nonexistent/g.csv"], None),
    (["chern", "--surface", "sphere", "--out", "/nonexistent/r.csv"], None),
    (["chern", "--surface", "sphere", "--grid-out", "."], None),  # a directory
    (["report"], "[surface]\nkind = sphere\n[output]\npath = /nonexistent/r.csv\n"),
    (["report"], "[surface]\nkind = sphere\n[output]\ngrid_path = /nonexistent/g.csv\n"),
    (["chern", "--surface", "sphere", "--resolution", "99999999999999999999x8"], None),
    (["chern", "--surface", "poincare_octagon", "--resolution",
      "4611686018427387904x8"], None),
    (["chern", "--surface", "sphere", "--out", "same.csv", "--grid-out", "./same.csv"], None),
    (["report"], "[surface]\nkind = sphere\n[output]\npath = same.csv\n"
                 "grid_path = ./same.csv\n"),
    (["compare", "--surface", "sphere", "--mode", "twist"], None),
], ids=["metric_overflow", "metric_not_spd", "nonpositive_factor", "factor_domain",
        "param_overflow", "perturb_overflow", "grid_out_missing_dir", "out_missing_dir",
        "grid_out_is_dir", "config_path_missing_dir", "config_grid_path_missing_dir",
        "resolution_past_int64", "resolution_past_array_size", "out_is_grid_out",
        "config_path_is_grid_path", "compare_not_fully_periodic"])
def test_bad_inputs_exit_one_without_traceback(argv, config, tmp_path):
    if config is not None:
        argv = argv + ["--config", _write(tmp_path, config)]
    files = sorted(tmp_path.iterdir())
    proc = subprocess.run([sys.executable, "-m", "chernquad.cli", *argv], cwd=tmp_path,
                          env=_subprocess_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("chernquad: error:"), proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr  # no numpy warnings
    assert proc.stdout == ""
    assert sorted(tmp_path.iterdir()) == files  # no report or grid written


@pytest.mark.parametrize("argv,message", [
    (["compare", "--surface", "sphere", "--mode", "twist"],
     "[compare] comparison requires a fully periodic domain"),
    (["compare", "--surface", "poincare_octagon", "--mode", "perturb"],
     "[compare] comparison requires a fully periodic domain"),
    (["chern", "--surface", "sphere", "--out", "same.csv", "--grid-out", "./same.csv"],
     "[output] path and grid_path name the same file"),
], ids=["compare_sphere", "compare_octagon", "out_is_grid_out"])
def test_config_conflicts_are_rejected_before_any_quadrature(argv, message, tmp_path,
                                                            monkeypatch, capsys):
    def refuse(surface, spec=None):
        raise AssertionError("a Chern number was computed")

    monkeypatch.setattr(experiment, "chern_number", refuse)
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"chernquad: error: {message}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("resolution", ["99999999999999999999x8", "4611686018427387904x8"])
@pytest.mark.parametrize("kind", sorted(zoo.BUILTIN_KINDS))
def test_oversized_node_counts_are_rejected_before_any_allocation(kind, resolution,
                                                                 monkeypatch, capsys):
    import chernquad.chern

    def refuse(domain, spec):
        raise AssertionError("nodes were built")

    monkeypatch.setattr(chernquad.chern, "build_nodes", refuse)
    assert cli.main(["chern", "--surface", kind, "--resolution", resolution]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"chernquad: error: [quadrature] node counts {resolution} "
                                   "exceed")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


# prints the modules that `import chernquad.cli` loads from where
# third-party packages live, other than numpy and chernquad
_IMPORT_PROBE = """
import os, site, sys, sysconfig
before = set(sys.modules)
import chernquad.cli, numpy
def under(*dirs):
    return tuple(os.path.realpath(d) + os.sep for d in dirs)
third_party = under(sysconfig.get_paths()["purelib"], sysconfig.get_paths()["platlib"],
                    site.getusersitepackages())
allowed = under(os.path.dirname(numpy.__file__), os.path.dirname(chernquad.__file__))
paths = {name: getattr(sys.modules[name], "__file__", None) or ""
         for name in set(sys.modules) - before}
print(sorted(name for name, path in paths.items()
             if os.path.realpath(path).startswith(third_party)
             and not os.path.realpath(path).startswith(allowed)))
"""


def test_cli_imports_numpy_alone():
    # the package depends on numpy alone
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_failed_allocation_exits_one(monkeypatch, capsys):
    import chernquad.chern

    def refuse(domain, spec):
        raise MemoryError(f"Unable to allocate {spec.n_u * spec.n_v * 8} bytes")

    monkeypatch.setattr(chernquad.chern, "build_nodes", refuse)
    argv = ["chern", "--surface", "torus_revolution", "--resolution", "100000x100000"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "chernquad: error: Unable to allocate 80000000000 bytes\n"
    assert captured.out == ""


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


def test_verify_samples_the_torus_and_its_rescaling_once(monkeypatch):
    from chernquad import verify

    verify._torus_and_rescaling.cache_clear()
    calls = _count_metric_grid_calls(monkeypatch)
    assert verify.check_conformal_invariance(5).passed
    assert verify.check_metric_independence(6).passed
    # torus, its rescaling, the perturbed and the twisted torus at 128^2
    assert calls.count(128 * 128) == 4
