"""Config files, overrides, the experiment runner, and the CLI contract."""

import dataclasses
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
from chernquad.chern import chern_number
from chernquad.config import ExperimentConfig, load_config
from chernquad.errors import ConfigError
from chernquad.metric import RectDomain
from chernquad.quadrature import QuadratureSpec

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
    assert config.surface.name == "torus_revolution(R=3,r=1)"
    assert config.surface.evaluator(0.0, 0.0).g22.val == 16.0  # (R + r cos u)^2
    assert config.spec == QuadratureSpec(32, 32)
    assert config.other is None
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
    surface = config.surface
    assert surface.name == "stretched" and isinstance(surface.domain, RectDomain)
    assert surface.evaluator(math.pi / 2, 0.0).g11.val == pytest.approx(3.0)
    assert surface.domain.periodic_u and surface.domain.periodic_v
    assert surface.domain.u_max == pytest.approx(2 * math.pi)
    assert config.spec == QuadratureSpec(64, 64)  # the custom reference resolution


def test_overrides_win_over_file_values(tmp_path):
    path = _write(tmp_path, "[surface]\nkind = sphere\nR = 1\n")
    config = load_config(path, overrides=["surface.R=4", "quadrature.n_u=16",
                                          "quadrature.n_v=16"])
    assert config.surface.name == "sphere(R=4)"
    assert config.spec == QuadratureSpec(16, 16)


def test_default_keys_reach_every_section(tmp_path):
    path = _write(tmp_path, "[DEFAULT]\nR = 3\n[surface]\nkind = sphere\n")
    assert load_config(path).surface.name == "sphere(R=3)"
    # a section that only an override names holds them too, as in configparser
    with pytest.raises(ConfigError, match=r"^\[output\] unknown key 'R'$"):
        load_config(path, overrides=["output.format=json"])


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
    ("[surface]\nkind = custom\ng11 = \"1\"\ng12 = \"0\"\ng22 = \"1\"\n"
     "domain = octagon\nu_min = 5\n", "unknown key 'u_min'"),
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

def test_run_reports_base_fields(tmp_path):
    config = load_config(_write(tmp_path, "[surface]\nkind = sphere\nR = 1\n"))
    assert config.spec == QuadratureSpec(64, 128)  # the sphere's reference resolution
    report = experiment.run(config)
    assert report.fieldnames == experiment.BASE_FIELDS
    assert report.row["rounded"] == 2
    assert not report.flagged
    lines = report.to_csv().splitlines()
    assert lines[0] == BASE_HEADER
    assert lines[1].startswith("sphere(R=1),64,128,")


def test_run_compare_adds_fields_and_checks_periodicity(tmp_path):
    base = zoo.torus_revolution()
    config = ExperimentConfig(base, QuadratureSpec(32, 32), zoo.twisted_surface(base, 0.3))
    report = experiment.run(config)
    assert report.fieldnames == experiment.BASE_FIELDS + experiment.COMPARE_FIELDS
    assert abs(report.row["delta_raw"]) < 1e-8
    assert report.row["stokes_residual"] < 1e-10

    path = _write(tmp_path, "[surface]\nkind = poincare_octagon\n"
                            "[compare]\nmode = twist\namplitude = 0.3\n")
    with pytest.raises(ConfigError, match="fully periodic"):
        load_config(path)


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
    config = ExperimentConfig(zoo.flat_torus(), QuadratureSpec(16, 16))
    assert "runtime_ms" not in experiment.run(config).fieldnames
    config.timings = True
    report = experiment.run(config)
    assert report.fieldnames[-1] == "runtime_ms"
    assert report.row["runtime_ms"] > 0.0


def test_report_serialization_is_byte_identical():
    base = zoo.torus_revolution()
    config = ExperimentConfig(base, QuadratureSpec(32, 32),
                              zoo.perturbed_surface(base, seed=1, amplitude=0.1))
    first = experiment.run(config)
    second = experiment.run(config)
    assert first.to_csv() == second.to_csv()
    assert first.to_json() == second.to_json()
    parsed = json.loads(first.to_json())
    assert parsed["rounded"] == 0


@pytest.mark.parametrize("name", ['say "hi" \\ there', "tab\tand\nnewline", "naïve"])
def test_json_report_escapes_the_surface_name(name):
    surface = dataclasses.replace(zoo.flat_torus(), name=name)
    text = experiment.run(ExperimentConfig(surface, QuadratureSpec(8, 8))).to_json()
    assert json.loads(text)["surface"] == name
    assert text.count("\n") == 1 + len(experiment.BASE_FIELDS) + 1  # one line per field
    assert ("naïve" in text) == (name == "naïve")  # non-ASCII is written as is


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
    from_flags = capsys.readouterr().err
    assert from_flags == "chernquad: error: [surface] unknown key 'bogus'\n"
    assert cli.main(["report", "--config", cfg, "--set", "surface.bogus=1"]) == 1
    assert capsys.readouterr().err == from_flags


_SPHERE_CFG = "[surface]\nkind = sphere\n"


# an unknown parameter key reads the same for every kind, in the test above
@pytest.mark.parametrize("flags,config,overrides", [
    (["chern", "--surface", "klein_bottle"], _SPHERE_CFG, ["surface.kind=klein_bottle"]),
    (["chern", "--surface", "sphere", "--param", "R=abc"], _SPHERE_CFG, ["surface.R=abc"]),
    (["chern", "--surface", "sphere", "--param", " R = nan "], _SPHERE_CFG,
     ["surface.R= nan"]),
    (["chern", "--surface", "sphere", "--resolution", "4x16"], _SPHERE_CFG,
     ["quadrature.n_u=4", "quadrature.n_v=16"]),
    (["chern", "--surface", "sphere", "--out", "r.csv", "--grid-out", " 'r.csv' "],
     _SPHERE_CFG, ["output.path=r.csv", "output.grid_path='r.csv'"]),
    (["compare", "--surface", "torus_revolution", "--mode", "conformal", "--factor",
      "sin("], "[surface]\nkind = torus_revolution\n[compare]\nmode = conformal\n",
     ["compare.factor=sin("]),
    (["compare", "--surface", "sphere", "--mode", "twist"], _SPHERE_CFG,
     ["compare.mode=twist"]),
], ids=["unknown_kind", "not_a_number", "padded_nan_radius", "too_few_nodes", "same_file",
        "factor_syntax", "not_periodic"])
def test_the_same_mistake_reads_the_same_from_flags_and_overrides(flags, config, overrides,
                                                                 tmp_path, monkeypatch,
                                                                 capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(flags) == 1
    from_flags = capsys.readouterr()
    assert from_flags.out == ""
    assert from_flags.err.startswith("chernquad: error: [")
    argv = ["report", "--config", _write(tmp_path, config)]
    assert cli.main(argv + [a for item in overrides for a in ("--set", item)]) == 1
    assert capsys.readouterr() == from_flags


def test_a_negative_seed_reads_the_same_from_a_flag_a_file_and_an_override(tmp_path, capsys):
    message = "chernquad: error: [compare] seed: expected a non-negative integer, got '-1'\n"
    base = "[surface]\nkind = torus_revolution\n[compare]\nmode = perturb\n"
    for argv in (["compare", "--surface", "torus_revolution", "--mode", "perturb",
                  "--seed", "-1"],
                 ["report", "--config", _write(tmp_path, base + "seed = -1\n")],
                 ["report", "--config", _write(tmp_path, base, "base.cfg"),
                  "--set", "compare.seed=-1"]):
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize("key,value,message", [
    ("seed", "abc", "[compare] seed: expected an integer, got 'abc'"),
    ("seed", "7.5", "[compare] seed: expected an integer, got '7.5'"),
    ("amplitude", "abc", "[compare] amplitude: expected a number, got 'abc'"),
])
def test_a_bad_seed_or_amplitude_reads_the_same_from_a_flag_a_file_and_an_override(
        key, value, message, tmp_path, capsys):
    base = "[surface]\nkind = torus_revolution\n[compare]\nmode = perturb\n"
    for argv in (["compare", "--surface", "torus_revolution", "--mode", "perturb",
                  f"--{key}", value],
                 ["report", "--config", _write(tmp_path, base + f"{key} = {value}\n")],
                 ["report", "--config", _write(tmp_path, base, "base.cfg"),
                  "--set", f"compare.{key}={value}"]):
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", f"chernquad: error: {message}\n")


@pytest.mark.parametrize("mode,key,value,message", [
    ("twist", "seed", "5", "[compare] unknown key 'seed'"),
    ("perturb", "factor", "2", "[compare] unknown key 'factor'"),
    ("twist", "amplitude", "inf", "[compare] amplitude: expected a finite number, got 'inf'"),
    ("twist", "amplitude", "-inf",
     "[compare] amplitude: expected a finite number, got '-inf'"),
    ("perturb", "amplitude", "nan",
     "[compare] amplitude: expected a finite number, got 'nan'"),
])
def test_a_key_the_mode_does_not_read_or_a_non_finite_amplitude_reads_the_same_everywhere(
        mode, key, value, message, tmp_path, capsys):
    base = f"[surface]\nkind = torus_revolution\n[compare]\nmode = {mode}\n"
    for argv in (["compare", "--surface", "torus_revolution", "--mode", mode,
                  f"--{key}={value}"],
                 ["report", "--config", _write(tmp_path, base + f"{key} = {value}\n")],
                 ["report", "--config", _write(tmp_path, base, "base.cfg"),
                  "--set", f"compare.{key}={value}"]):
        assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", f"chernquad: error: {message}\n")


def test_seed_and_amplitude_flags_give_the_report_their_values_give(tmp_path, capsys):
    # the flag text goes to config as a file value does (the defaults, seed 1
    # and amplitude 0.1, give another report)
    args = ["--surface", "torus_revolution", "--resolution", "16x16"]
    assert cli.main(["compare", *args, "--mode", "perturb", "--seed", "007",
                     "--amplitude", "5e-2"]) == 0
    from_flags = capsys.readouterr().out
    cfg = _write(tmp_path, "[surface]\nkind = torus_revolution\n[quadrature]\nn_u = 16\n"
                           "n_v = 16\n[compare]\nmode = perturb\nseed = 7\namplitude = 0.05\n")
    assert cli.main(["report", "--config", cfg]) == 0
    assert capsys.readouterr().out == from_flags


def test_verify_rejects_a_negative_seed_as_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--seed", "-3"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == ("chernquad verify: error: argument --seed: "
                                             "expected a non-negative integer, got '-3'")


def test_a_strong_twist_says_the_chart_axes_are_nearly_parallel(capsys):
    # the twist keeps det g while g11 * g22 grows with the amplitude squared
    assert cli.main(["compare", "--surface", "torus_revolution", "--mode", "twist",
                     "--amplitude", "1e6", "--resolution", "32x32"]) == 1
    assert capsys.readouterr() == (
        "", "chernquad: error: metric is degenerate to working precision: the chart axes "
            "are nearly parallel (min det/(g11*g22) 1.111e-13, bound 1e-12)\n")


def test_flag_values_are_stripped_as_config_values_are(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["chern", "--surface", " 'flat_torus' ", "--param", "a= '2' ",
                     "--resolution", "16x16", "--format", "json", "--out", " r.json"]) == 0
    assert capsys.readouterr().out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["r.json"]
    assert json.loads((tmp_path / "r.json").read_text())["surface"] == "flat_torus(a=2,b=1)"


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


@pytest.mark.parametrize("mode,flags,section", [
    ("conformal", ["--factor", "exp(0.6*sin(u))"], 'factor = "exp(0.6*sin(u))"\n'),
    ("perturb", ["--seed", "3", "--amplitude", "0.05"], "seed = 3\namplitude = 0.05\n"),
    ("twist", ["--amplitude", "0.7"], "amplitude = 0.7\n"),
])
def test_compare_flags_and_config_build_the_same_experiment(mode, flags, section,
                                                            tmp_path):
    args = cli.build_parser().parse_args(
        ["compare", "--surface", "torus_revolution", "--param", "R=3", "--mode", mode,
         *flags, "--resolution", "16x24"])
    from_flags = cli._config_from_flags(args)
    cfg = _write(tmp_path, "[surface]\nkind = torus_revolution\nR = 3\n"
                           "[quadrature]\nn_u = 16\nn_v = 24\n"
                           f"[compare]\nmode = {mode}\n{section}")
    from_file = load_config(cfg)
    assert from_flags.surface.name == from_file.surface.name == "torus_revolution(R=3,r=1)"
    assert from_flags.spec == from_file.spec == QuadratureSpec(16, 24)
    assert from_flags.other.name == from_file.other.name
    assert from_file.other.name.startswith("torus_revolution(R=3,r=1)|")


def test_constant_conformal_factor_leaves_the_chern_number(capsys):
    argv = ["compare", "--surface", "torus_revolution", "--mode", "conformal",
            "--factor", "1e-7", "--format", "json"]
    assert cli.main(argv) == 0
    assert abs(json.loads(capsys.readouterr().out)["delta_raw"]) < 1e-12


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
    assert capsys.readouterr().err == ("chernquad: error: [surface] unknown kind "
                                       "'klein_bottle'\n")

    # --surface names a builtin, and a parameter is never the kind
    assert cli.main(["chern", "--surface", "custom"]) == 1
    assert capsys.readouterr().err == "chernquad: error: [surface] unknown kind 'custom'\n"
    assert cli.main(["chern", "--surface", "sphere", "--param", "kind=custom"]) == 1
    assert capsys.readouterr().err == "chernquad: error: [surface] unknown key 'kind'\n"

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


def _per_node_grid(sample, fmt: str) -> str:
    """The grid file with every value formatted on its own: the reference."""
    cols = [["%.17g" % x for x in col.ravel().tolist()]
            for col in np.broadcast_arrays(sample.us, sample.vs, sample.k_area)]
    names = ("u", "v", "k_times_area")
    if fmt == "json":
        return "{\n" + ",\n".join(f'  "{name}": [{", ".join(col)}]'
                                   for name, col in zip(names, cols)) + "\n}\n"
    return ",".join(names) + "\n" + "".join(f"{u},{v},{k}\n" for u, v, k in zip(*cols))


def _signed_zero_runs(sample):
    # adjacent 0.0 and -0.0, alone and in runs, across row ends
    k = np.zeros(sample.k_area.shape)
    k.flat[1::3] = -0.0
    k.flat[5:40] = -0.0
    return dataclasses.replace(sample, k_area=k)


_TORUS_CHART = RectDomain(0.0, 2 * math.pi, 0.0, 2 * math.pi, periodic_u=True,
                          periodic_v=True)


# u and K * sqrt(det g) constant along v take the one-join CSV path (torus,
# sphere, flat torus); the others take the template path
@pytest.mark.parametrize("make,resolution,edit", [
    (lambda: zoo.torus_revolution(2.0, 1.0), (32, 32), None),  # one run per u-row
    (lambda: zoo.custom_surface("dense", _TORUS_CHART, "2 + sin(u)*cos(v)",
                                "0.1*sin(u + 2*v)", "2 + cos(u - v)"), (24, 24), None),
    (lambda: zoo.flat_torus(1.0, 2.0), (16, 16), _signed_zero_runs),
    (lambda: zoo.flat_torus(1.0, 2.0), (16, 16), None),  # one run over the whole grid
    (lambda: zoo.sphere(1.0), (16, 16), None),  # Gauss-Legendre u axis
    (zoo.poincare_octagon, (8, 8), None),
    (zoo.torus_revolution, (300, 300), None),  # several row blocks, the last partial
    (zoo.torus_revolution, (8, 20000), None),  # two column tiles a row
    (zoo.sphere, (64, 128), None),
    (zoo.poincare_octagon, (32, 32), None),  # a row of v per sector row
    # channels that broadcast along u and vary along v
    (lambda: zoo.custom_surface("v_alone", _TORUS_CHART, "2 + sin(v)", "0.1*cos(v)",
                                "2 + cos(2*v)"), (96, 80), None),
], ids=["torus", "dense_expression", "signed_zeros", "flat_torus", "sphere", "octagon",
        "torus_300x300", "torus_8x20000", "sphere_64x128", "octagon_32x32",
        "v_alone_96x80"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_grid_writer_matches_a_per_node_formatter(make, resolution, edit, fmt, tmp_path):
    sample = chern_number(make(), QuadratureSpec(*resolution)).sample
    if edit is not None:
        sample = edit(sample)
    path = tmp_path / f"grid.{fmt}"
    experiment._write_grid(str(path), sample)
    assert path.read_bytes() == _per_node_grid(sample, fmt).encode()


@pytest.mark.parametrize("text", ["report", ["u,v\n", "1,2\n"]],
                         ids=["string", "pieces"])
def test_write_text_reports_an_unwritable_path(text, tmp_path):
    for path in (tmp_path / "missing" / "g.csv", tmp_path, "g\0.csv"):
        with pytest.raises(ConfigError, match=r"^\[output\] cannot write: "):
            experiment.write_text(str(path), text)


def test_write_text_writes_pieces_as_one_text(tmp_path):
    path = tmp_path / "out.txt"
    experiment.write_text(str(path), (piece for piece in ["a,", "b\n", "", "c\n"]))
    assert path.read_bytes() == b"a,b\nc\n"


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
    (["report"], _BAD_METRIC_CFG.format(g11="1").replace("v_max = 1", "v_max = inf")),
    (["report"], _BAD_METRIC_CFG.format(g11="1").replace("v_min = 0", "v_min = -1e308")
                                                .replace("v_max = 1", "v_max = 1e308")),
    (["report"], _BAD_METRIC_CFG.format(g11="1").replace("u_max = 1", "u_max = 1e200")
                                                .replace("v_max = 1", "v_max = 1e200")),
    # constant components: det g = 1e-200 is normal, but the det^2 that the
    # Brioschi formula divides by underflows to 0
    (["report"], "[surface]\nkind = custom\ndomain = octagon\ng11 = 1e-100\ng12 = 0\n"
                 "g22 = 1e-100\n[quadrature]\nn_u = 32\nn_v = 32\n"),
    (["chern", "--surface", "flat_torus", "--param", "a=1e-60", "--param", "b=1e-60"],
     None),
], ids=["metric_overflow", "metric_not_spd", "nonpositive_factor", "factor_domain",
        "param_overflow", "perturb_overflow", "grid_out_missing_dir", "out_missing_dir",
        "grid_out_is_dir", "config_path_missing_dir", "config_grid_path_missing_dir",
        "resolution_past_int64", "resolution_past_array_size", "out_is_grid_out",
        "config_path_is_grid_path", "compare_not_fully_periodic", "rect_side_infinite",
        "rect_side_overflows", "rect_area_overflows", "custom_det_squared_underflow",
        "flat_torus_det_squared_underflow"])
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


_PROBE_MESSAGE = (
    "[compare] perturbation (seed 1, amplitude 1e+300) breaks positive definiteness on "
    "the probe grid: metric is not positive definite (min g11 0.000e+00, min det n/a; "
    "not finite at 4096 of 4096 nodes)")


@pytest.mark.parametrize("argv,config,message", [
    (["compare", "--surface", "sphere", "--mode", "twist"], None,
     "[compare] comparison requires a fully periodic domain"),
    (["compare", "--surface", "poincare_octagon", "--mode", "perturb"], None,
     "[compare] comparison requires a fully periodic domain"),
    (["compare", "--surface", "sphere", "--mode", "conformal"], None,
     "[compare] conformal mode requires factor"),  # the factor is checked first
    (["chern", "--surface", "sphere", "--out", "same.csv", "--grid-out", "./same.csv"],
     None, "[output] path and grid_path name the same file"),
    (["chern", "--surface", "sphere", "--param", "R=nan"], None,
     "[surface] sphere radius must be positive and finite"),
    (["compare", "--surface", "torus_revolution", "--mode", "conformal",
      "--factor", "sin("], None,
     "[compare] expected a number, name, '(' or '-' at offset 4"),
    (["compare", "--surface", "torus_revolution", "--mode", "perturb",
      "--amplitude", "1e300", "--resolution", "32x32"], None, _PROBE_MESSAGE),
    (["report"], "[surface]\nkind = torus_revolution\n[quadrature]\nn_u = 32\nn_v = 32\n"
                 "[compare]\nmode = conformal\nfactor = \"exp(0.6*sin(u)\"\n",
     "[compare] expected ')' at offset 14"),
    (["chern", "--surface", "sphere", "--param", "R=1e200"], None,
     "[surface] sphere(R=1e+200): metric scale R^2 = inf is outside the normal float "
     "range"),
    (["chern", "--surface", "sphere", "--param", "R=1e-200"], None,
     "[surface] sphere(R=1e-200): metric scale R^2 = 0 is outside the normal float range"),
    (["chern", "--surface", "torus_revolution", "--param", "R=1e200"], None,
     "[surface] torus_revolution(R=1e+200,r=1): metric scale (R+r)^2 = inf is outside "
     "the normal float range"),
    (["chern", "--surface", "flat_torus", "--param", "a=1e200"], None,
     "[surface] flat_torus(a=1e+200,b=1): metric scale a^2 = inf is outside the normal "
     "float range"),
    # the squared dets that the Brioschi formula divides by
    (["chern", "--surface", "sphere", "--param", "R=1e39"], None,
     "[surface] sphere(R=1e+39): metric scale R^8 = inf is outside the normal float range"),
    (["chern", "--surface", "torus_revolution", "--param", "R=1e39", "--param", "r=5e38"],
     None, "[surface] torus_revolution(R=1e+39,r=5e+38): metric scale r^4 (R+r)^4 = inf "
           "is outside the normal float range"),
    (["chern", "--surface", "flat_torus", "--param", "a=1e-60", "--param", "b=1e-60"], None,
     "[surface] flat_torus(a=1e-60,b=1e-60): metric scale a^4 b^4 = 0 is outside the "
     "normal float range"),
    # a conformal factor that takes f^2 det g past the normal floats
    (["compare", "--surface", "torus_revolution", "--mode", "conformal", "--factor", "1e-170",
      "--resolution", "32x32"], None,
     "[compare] torus_revolution(R=2,r=1)|conformal(1e-170): metric scale f^2 det g = 0 "
     "is outside the normal float range"),
    (["compare", "--surface", "torus_revolution", "--mode", "conformal", "--factor", "1e200",
      "--resolution", "32x32"], None,
     "[compare] torus_revolution(R=2,r=1)|conformal(1e200): metric scale f^2 det g = inf "
     "is outside the normal float range"),
    # a conformal factor that is NaN where u^1024 overflows
    (["compare", "--surface", "torus_revolution", "--mode", "conformal", "--factor",
      "u^1024*0+1", "--resolution", "16x16"], None,
     "[compare] torus_revolution(R=2,r=1)|conformal(u^1024*0+1): conformal factor is not "
     "finite on the probe grid"),
], ids=["compare_sphere", "compare_octagon", "compare_sphere_no_factor", "out_is_grid_out",
        "param_nan", "factor_syntax", "perturb_probe", "config_factor_syntax",
        "sphere_param_overflow", "sphere_param_underflow", "torus_param_overflow",
        "flat_torus_param_overflow", "sphere_det_squared_overflow",
        "torus_det_squared_overflow", "flat_torus_det_squared_underflow",
        "conformal_factor_underflow", "conformal_factor_overflow", "conformal_factor_nan"])
def test_config_conflicts_are_rejected_before_any_quadrature(argv, config, message,
                                                            tmp_path, tmp_path_factory,
                                                            monkeypatch, capsys):
    if config is not None:
        path = tmp_path_factory.mktemp("config") / "exp.cfg"
        path.write_text(config, encoding="utf-8")
        argv = argv + ["--config", str(path)]

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


def _count_sampled_nodes(monkeypatch):
    """The node count of each block that ``curvature_sample`` evaluates:
    the size of its broadcast (u, v), not of the u column alone."""
    import chernquad.chern

    calls = []
    original = chernquad.chern.curvature_report_grid

    def counting(field, us, vs):
        calls.append(np.broadcast(us, vs).size)
        return original(field, us, vs)

    monkeypatch.setattr(chernquad.chern, "curvature_report_grid", counting)
    return calls


@pytest.mark.parametrize("argv,expected", [
    (["compare", "--surface", "torus_revolution", "--mode", "conformal",
      "--factor", "exp(0.6*sin(u))"], 2),
    (["compare", "--surface", "torus_revolution", "--mode", "twist"], 2),
    (["chern", "--surface", "torus_revolution"], 1),
], ids=["compare_conformal", "compare_twist", "chern"])
def test_grid_out_ops_evaluate_each_metric_once(argv, expected, tmp_path, monkeypatch,
                                                capsys):
    calls = _count_sampled_nodes(monkeypatch)
    grid = tmp_path / "grid.csv"
    assert cli.main(argv + ["--resolution", "32x32", "--grid-out", str(grid)]) == 0
    capsys.readouterr()
    assert calls == [32 * 32] * expected
    assert len(grid.read_text().splitlines()) == 1 + 32 * 32


def test_verify_samples_the_torus_and_its_rescaling_once(monkeypatch):
    from chernquad import verify

    verify._torus_and_rescaling.cache_clear()
    calls = _count_sampled_nodes(monkeypatch)
    assert verify.check_conformal_invariance(5).passed
    assert verify.check_metric_independence(6).passed
    # torus, its rescaling, the perturbed and the twisted torus at 128^2
    assert calls.count(128 * 128) == 4
