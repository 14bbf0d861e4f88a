"""Record the observable output of a fixed command set, for byte-identity checks.

Usage: python3 tools/snapshot_outputs.py OUTDIR

Runs each command below in its own subprocess, from a fresh temporary
working directory, against the ``src/`` and ``demos/`` of the checkout
that holds this script.  For a command named NAME it writes
``NAME.out``, ``NAME.err`` and ``NAME.rc`` (stdout, stderr and exit
code) into OUTDIR, and copies each file the command left in its working
directory (grid dumps) as ``NAME.<file>``.  ``dense_grid.cfg`` beside
this script is the config of the dense grid dump, and
``expression_grid.cfg`` that of a grid dump whose metric uses every
production of the expression grammar, and ``overflow_integral.cfg``
that of Chern integrals that leave the float range.  Two checkouts
produce byte-identical output exactly when ``diff -r`` of their
snapshots is empty.  A run writes 278 files and takes about 22 s on a 2-core
machine, so it stays out of the test suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI = (sys.executable, "-m", "chernquad.cli")
BUILTINS = ("sphere", "torus_revolution", "flat_torus", "poincare_octagon")
COMPARE_MODES = {
    "conformal": ("--factor", "exp(0.6*sin(u))"),
    "perturb": (),
    "twist": (),
}


def commands() -> list[tuple[str, tuple[str, ...]]]:
    cmds = []
    for kind in BUILTINS:
        for fmt in ("csv", "json"):
            cmds.append((f"chern_{kind}_{fmt}",
                         CLI + ("chern", "--surface", kind, "--format", fmt,
                                "--grid-out", f"grid.{fmt}")))
    cmds += [
        ("chern_sphere_256x512", CLI + ("chern", "--surface", "sphere", "--resolution",
                                        "256x512", "--grid-out", "grid.csv")),
        ("chern_octagon_64x64", CLI + ("chern", "--surface", "poincare_octagon",
                                       "--resolution", "64x64")),
        ("chern_torus_1024x1024", CLI + ("chern", "--surface", "torus_revolution",
                                         "--resolution", "1024x1024")),
        # 300-node rows: several row blocks, the last one partial
        ("chern_torus_300x300", CLI + ("chern", "--surface", "torus_revolution",
                                       "--resolution", "300x300")),
        # 20000-node rows: two column tiles a row, over channels in u alone
        ("chern_torus_8x20000", CLI + ("chern", "--surface", "torus_revolution",
                                       "--resolution", "8x20000",
                                       "--grid-out", "grid.json")),
        ("compare_torus_perturb_300x300",
         CLI + ("compare", "--surface", "torus_revolution", "--mode", "perturb",
                "--resolution", "300x300", "--grid-out", "grid.csv")),
        # 20000-node rows in pieces of two rows, the last tile one row: stores
        # sized from the first tile, over channels in u alone and in u and v
        ("chern_sphere_9x20000", CLI + ("chern", "--surface", "sphere", "--resolution",
                                        "9x20000", "--grid-out", "grid.csv")),
        ("compare_torus_perturb_9x20000",
         CLI + ("compare", "--surface", "torus_revolution", "--mode", "perturb",
                "--resolution", "9x20000")),
    ]
    for kind, fmt in (("torus_revolution", "csv"), ("flat_torus", "json")):
        for mode, extra in COMPARE_MODES.items():
            for res in ("64x64", "256x256"):
                cmds.append((f"compare_{kind}_{mode}_{res}",
                             CLI + ("compare", "--surface", kind, "--mode", mode, *extra,
                                    "--resolution", res, "--format", fmt,
                                    "--grid-out", f"grid.{fmt}")))
    for mode, extra in COMPARE_MODES.items():
        cmds.append((f"compare_torus_revolution_{mode}_256x256_json",
                     CLI + ("compare", "--surface", "torus_revolution", "--mode", mode,
                            *extra, "--resolution", "256x256", "--format", "json",
                            "--grid-out", "grid.json")))
    cmds += [
        # a twist of a metric in u alone is stored along u alone
        ("compare_flat_torus_twist",
         CLI + ("compare", "--surface", "flat_torus", "--mode", "twist")),
        ("compare_torus_twist_9x20000",
         CLI + ("compare", "--surface", "torus_revolution", "--mode", "twist",
                "--resolution", "9x20000")),
        ("compare_twist_amplitude_1e6",
         CLI + ("compare", "--surface", "torus_revolution", "--mode", "twist",
                "--amplitude", "1e6", "--resolution", "32x32")),
        ("compare_twist_amplitude_1e8",
         CLI + ("compare", "--surface", "torus_revolution", "--mode", "twist",
                "--amplitude", "1e8", "--resolution", "32x32")),
        ("compare_perturb_amplitude_1e300",
         CLI + ("compare", "--surface", "torus_revolution", "--mode", "perturb",
                "--amplitude", "1e300", "--resolution", "32x32")),
    ]
    # rejected inputs: their one error line is part of the contract
    cmds += [
        ("error_compare_factor_syntax",
         CLI + ("compare", "--surface", "torus_revolution", "--mode", "conformal",
                "--factor", "sin(")),
        ("error_compare_factor_missing",
         CLI + ("compare", "--surface", "torus_revolution", "--mode", "conformal")),
        ("error_compare_sphere_twist",
         CLI + ("compare", "--surface", "sphere", "--mode", "twist")),
        # the flags are read by config, as --set compare.seed=abc is
        *((f"error_compare_{flag}_abc",
           CLI + ("compare", "--surface", "torus_revolution", "--mode", "perturb",
                  f"--{flag}", "abc")) for flag in ("seed", "amplitude")),
        # a flag the mode does not read, as a key the section does not know
        ("error_compare_twist_seed",
         CLI + ("compare", "--surface", "torus_revolution", "--mode", "twist", "--seed", "5")),
        ("error_compare_twist_amplitude_inf",
         CLI + ("compare", "--surface", "torus_revolution", "--mode", "twist",
                "--amplitude=inf")),
        ("error_compare_octagon_perturb",
         CLI + ("compare", "--surface", "poincare_octagon", "--mode", "perturb")),
        ("error_chern_unknown_param",
         CLI + ("chern", "--surface", "sphere", "--param", "bogus=1")),
        # the flags read as the config keys they stand for
        ("error_chern_unknown_kind", CLI + ("chern", "--surface", "klein_bottle")),
        ("error_chern_custom_kind", CLI + ("chern", "--surface", "custom")),
        ("error_chern_param_not_a_number",
         CLI + ("chern", "--surface", "sphere", "--param", "R=abc")),
        ("error_chern_param_kind",
         CLI + ("chern", "--surface", "sphere", "--param", "kind=custom")),
        ("error_report_unknown_key",
         CLI + ("report", "--config",
                str(ROOT / "demos" / "configs" / "torus_conformal.cfg"),
                "--set", "surface.bogus=1")),
        ("error_chern_sphere_R_1e39",
         CLI + ("chern", "--surface", "sphere", "--param", "R=1e39")),
        ("error_chern_flat_torus_1e-60",
         CLI + ("chern", "--surface", "flat_torus", "--param", "a=1e-60",
                "--param", "b=1e-60")),
        ("error_compare_factor_1e-170",
         CLI + ("compare", "--surface", "torus_revolution", "--mode", "conformal",
                "--factor", "1e-170", "--resolution", "32x32")),
        ("error_compare_factor_nan",
         CLI + ("compare", "--surface", "torus_revolution", "--mode", "conformal",
                "--factor", "u^1024*0+1", "--resolution", "16x16")),
        ("error_compare_factor_1e200",
         CLI + ("compare", "--surface", "torus_revolution", "--mode", "conformal",
                "--factor", "1e200", "--resolution", "32x32")),
        *((f"error_compare_factor_{name}",
           CLI + ("compare", "--surface", "torus_revolution", "--mode", "conformal",
                  "--factor", factor, "--resolution", "32x32"))
          for name, factor in (("log_domain", "log(u - 10)"), ("bad_char", "sin(u) $ 2"),
                               ("division", "1/(u - u)"), ("power_domain", "u^0.5"))),
        ("error_report_custom_octagon_det_underflow",
         CLI + ("report", "--config",
                str(ROOT / "demos" / "configs" / "custom_octagon.cfg"),
                "--set", "surface.g11=1e-100", "--set", "surface.g12=0",
                "--set", "surface.g22=1e-100")),
    ]
    for cfg in sorted((ROOT / "demos" / "configs").glob("*.cfg")):
        cmds.append((f"report_{cfg.stem}", CLI + ("report", "--config", str(cfg))))
    cmds.append(("report_custom_octagon_quoted_name_json",
                 CLI + ("report", "--config",
                        str(ROOT / "demos" / "configs" / "custom_octagon.cfg"),
                        "--set", 'surface.name=say "hi" \\ there',
                        "--set", "output.format=json")))
    cmds.append(("report_torus_conformal_32x32",
                 CLI + ("report", "--config",
                        str(ROOT / "demos" / "configs" / "torus_conformal.cfg"),
                        "--set", "quadrature.n_u=32", "--set", "quadrature.n_v=32")))
    # a grid whose K * sqrt(det g) differs at every node
    dense = str(ROOT / "tools" / "dense_grid.cfg")
    cmds += [("report_dense_grid_csv", CLI + ("report", "--config", dense)),
             ("report_dense_grid_json",
              CLI + ("report", "--config", dense, "--set", "output.format=json",
                     "--set", "output.grid_path=grid.json")),
             ("report_expression_grid_csv",
              CLI + ("report", "--config", str(ROOT / "tools" / "expression_grid.cfg"))),
             # a metric in v alone: channels that broadcast along u
             ("report_v_alone_grid_csv",
              CLI + ("report", "--config", dense, "--set", "surface.name=v_alone",
                     "--set", "surface.g11=2 + sin(v)", "--set", "surface.g12=0.1*cos(v)",
                     "--set", "surface.g22=2 + cos(2*v)"))]
    # finite channels whose Chern integral overflows
    overflow = str(ROOT / "tools" / "overflow_integral.cfg")
    cmds += [(f"error_report_overflow_v_max_{v_max}",
              CLI + ("report", "--config", overflow, "--set", f"surface.v_max={v_max}"))
             for v_max in ("1e300", "1e287")]
    cmds.append(("error_report_overflow_inf_minus_inf",
                 CLI + ("report", "--config", overflow, "--set", "surface.g11=exp(200*sin(u))",
                        "--set", "surface.g22=exp(cos(v))", "--set", "surface.u_max=1e300",
                        "--set", "surface.v_max=1e7", "--set", "surface.periodic_u=true",
                        "--set", "quadrature.n_u=8", "--set", "quadrature.n_v=8")))
    for seed in ("0", "7", "13", "74"):
        cmds.append((f"verify_seed_{seed}", CLI + ("verify", "--seed", seed)))
    cmds.append(("error_verify_seed_-3", CLI + ("verify", "--seed", "-3")))
    for demo in sorted((ROOT / "demos").glob("*.py")):
        cmds.append((f"demo_{demo.stem}", (sys.executable, str(demo))))
    return cmds


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for name, cmd in commands():
        with tempfile.TemporaryDirectory() as cwd:
            proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True)
            (outdir / f"{name}.out").write_bytes(proc.stdout)
            (outdir / f"{name}.err").write_bytes(proc.stderr)
            (outdir / f"{name}.rc").write_text(f"{proc.returncode}\n")
            for left in sorted(Path(cwd).iterdir()):
                shutil.copyfile(left, outdir / f"{name}.{left.name}")
        print(f"{proc.returncode}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
