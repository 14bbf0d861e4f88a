"""Seeded operations for each benchmark workload.

An operation is one call of ``chernquad.cli.main(argv)`` plus the facts
the oracle needs to judge its output.  Operations come in rotations: a
run executes whole rotations only, so every run sees each operation kind
in the same proportion and the amount of work does not depend on the
seed.  The seed draws surface parameters, compare factors, amplitudes
and perturbation seeds, custom expression metrics and verify seeds;
resolutions are fixed.

Why each workload exists:

``torus_1m``
    one chern op on the torus of revolution at 1024x1024 (1,048,576
    nodes).  Jet channels are 8 MB each and the temporaries reach about
    1.4 GB, far beyond the L2 cache, so per-node ``curvature`` and
    ``jets`` work that falls out of cache sets the time.  Block
    streaming and lighter jets show here, and so does peak memory.
``reference_mix``
    small ops (at most 16k nodes, 10-60 ms each): chern on the four
    builtins at their reference resolutions, report on the shipped
    custom octagon config and on a generated periodic expression
    metric, and compare in each mode at 64x64.  Fixed per-call Python
    cost dominates (jet object churn, expression parsing, the octagon
    root finder, argparse, config).  It bypasses large-grid
    optimisations, whose block or thread overhead must show here as no
    change.
``compare_dump``
    compare at 256x256 on the torus, cycling conformal, perturb and
    twist, each op writing the curvature grid as CSV or JSON
    (alternating).  The metric grid is evaluated about five times per
    node and 65,536 grid rows are formatted as text, so "evaluate each
    field once" and the grid formatter show here and nowhere else.
``verify_suite``
    ``verify --seed S``: the only workload that reaches the scalar point
    entry points, ``complex_structure`` and verify's pointwise loops.
    Some seeds make a verify suite fail at the parent commit (see
    NOTES.md), so this workload is runnable but not one of the gated
    workloads in BENCHMARK.json.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

TWO_PI = 2.0 * math.pi
OCTAGON_SECTORS = 8

# Resolutions pinned by the benchmark (the reference resolutions of the
# parent commit), so a change of program defaults cannot change the work.
REFERENCE = {
    "sphere": (64, 128),
    "torus_revolution": (128, 128),
    "flat_torus": (64, 64),
    "poincare_octagon": (32, 32),
}
EXPECTED_CHERN = {"sphere": 2, "torus_revolution": 0, "flat_torus": 0,
                  "poincare_octagon": -2}

WORKLOADS = ("torus_1m", "reference_mix", "compare_dump", "verify_suite")
GATED = ("torus_1m", "reference_mix", "compare_dump")

# full-size and tiny (test) resolutions per workload
_SIZES = {
    "torus_1m": {"full": 1024, "tiny": 32},
    "compare_dump": {"full": 256, "tiny": 32},
}
MIX_SIZE = 64  # reference_mix ops are small already; tiny leaves them alone

VERIFY_SEED_RANGE = 2 ** 31

# latency_tail_ms percentile: the highest with at least ten samples
# beyond it at the parent commit's op count in a 25 s run (700-1000
# reference_mix ops; p99 would need more than 1000).  torus_1m and
# compare_dump complete too few ops for any, so their tail is the
# maximum.  Fixed per workload, so a faster program is not moved to a
# different percentile.
TAIL_PERCENTILE = {"torus_1m": 100.0, "reference_mix": 95.0, "compare_dump": 100.0,
                   "verify_suite": 100.0}


@dataclass(frozen=True)
class Op:
    """One CLI call and what its output must satisfy."""

    kind: str
    argv: tuple[str, ...]
    expected_chern: int | None  # None: verify op
    nodes: int  # quadrature nodes requested (0 for verify)
    compare: bool = False
    grid_path: str = ""
    grid_rows: int = 0
    config_path: str = ""  # written from config_text before the op runs
    config_text: str = ""


def _res(n_u: int, n_v: int) -> str:
    return f"{n_u}x{n_v}"


def _nodes(kind: str, n_u: int, n_v: int) -> int:
    return (OCTAGON_SECTORS if kind == "poincare_octagon" else 1) * n_u * n_v


def _torus_params(rng: random.Random) -> list[str]:
    big = rng.uniform(1.5, 4.0)
    small = big * rng.uniform(0.15, 0.6)
    return ["--param", f"R={big!r}", "--param", f"r={small!r}"]


def _builtin_params(kind: str, rng: random.Random) -> list[str]:
    if kind == "sphere":
        return ["--param", f"R={rng.uniform(0.5, 3.0)!r}"]
    if kind == "torus_revolution":
        return _torus_params(rng)
    if kind == "flat_torus":
        return ["--param", f"a={rng.uniform(0.5, 2.0)!r}",
                "--param", f"b={rng.uniform(0.5, 2.0)!r}"]
    return []


def _conformal_factor(rng: random.Random) -> str:
    a, b = rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)
    ku, kv = rng.randint(1, 2), rng.randint(1, 2)
    return f"exp({a:.4f}*sin({ku}*u) + {b:.4f}*cos({kv}*v))"


def _compare_args(mode: str, rng: random.Random) -> list[str]:
    if mode == "conformal":
        return ["--factor", _conformal_factor(rng)]
    if mode == "perturb":
        return ["--seed", str(rng.randrange(10 ** 6)),
                "--amplitude", f"{rng.uniform(0.02, 0.2):.4f}"]
    return ["--amplitude", f"{rng.uniform(0.05, 0.6):.4f}"]


def _periodic_metric_config(rng: random.Random, n: int) -> str:
    # g11, g22 >= exp(-1) and |g12| <= 0.3, so the metric is SPD everywhere
    def positive(var_a, var_b):
        a, b = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
        ka, kb = rng.randint(1, 2), rng.randint(1, 2)
        pa = rng.uniform(0.0, TWO_PI)
        return f"exp({a:.4f}*sin({ka}*{var_a} + {pa:.4f}) + {b:.4f}*cos({kb}*{var_b}))"

    c = rng.uniform(-0.3, 0.3)
    g11, g22 = positive("u", "v"), positive("v", "u")
    g12 = f"{c:.4f}*sin(u + v)"
    fmt = rng.choice(("csv", "json"))
    return (
        "[surface]\nkind = custom\nname = periodic_expression\ndomain = rect\n"
        f'g11 = "{g11}"\ng12 = "{g12}"\ng22 = "{g22}"\n'
        f"u_min = 0\nu_max = {TWO_PI!r}\nv_min = 0\nv_max = {TWO_PI!r}\n"
        "periodic_u = true\nperiodic_v = true\n\n"
        f"[quadrature]\nn_u = {n}\nn_v = {n}\n\n[output]\nformat = {fmt}\n")


class OpStream:
    """Endless rotations of seeded operations for one workload.

    ``workdir`` receives generated configs and grid files; ``root`` is
    the checkout holding ``demos/configs``.  ``tiny`` shrinks the large
    grids of torus_1m and compare_dump for the benchmark's own tests.
    """

    def __init__(self, workload: str, seed: int, workdir: str, root: str,
                 tiny: bool = False):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.workdir = Path(workdir)
        self.root = Path(root)
        self.tiny = tiny
        self.count = 0  # operations generated so far

    def _size(self) -> int:
        return _SIZES[self.workload]["tiny" if self.tiny else "full"]

    def rotation(self) -> list[Op]:
        ops = getattr(self, f"_rotation_{self.workload}")()
        self.count += len(ops)
        return ops

    def _rotation_torus_1m(self) -> list[Op]:
        n = self._size()
        argv = ["chern", "--surface", "torus_revolution", "--resolution", _res(n, n),
                *_torus_params(self.rng)]
        return [Op("chern:torus_revolution", tuple(argv), 0, n * n)]

    def _rotation_reference_mix(self) -> list[Op]:
        rng = self.rng
        ops = []
        for kind, (n_u, n_v) in REFERENCE.items():
            argv = ["chern", "--surface", kind, "--resolution", _res(n_u, n_v),
                    *_builtin_params(kind, rng)]
            ops.append(Op(f"chern:{kind}", tuple(argv), EXPECTED_CHERN[kind],
                          _nodes(kind, n_u, n_v)))

        octagon_cfg = self.root / "demos" / "configs" / "custom_octagon.cfg"
        ops.append(Op("report:custom_octagon", ("report", "--config", str(octagon_cfg)), -2,
                      _nodes("poincare_octagon", 32, 32)))

        n = MIX_SIZE
        cfg = self.workdir / f"periodic_{self.count + len(ops)}.cfg"
        ops.append(Op("report:periodic_expression", ("report", "--config", str(cfg)), 0,
                      n * n, config_path=str(cfg),
                      config_text=_periodic_metric_config(rng, n)))

        for mode in ("conformal", "perturb", "twist"):
            argv = ["compare", "--surface", "torus_revolution", "--resolution", _res(n, n),
                    *_torus_params(rng), "--mode", mode, *_compare_args(mode, rng)]
            ops.append(Op(f"compare:{mode}", tuple(argv), 0, n * n, compare=True))
        rng.shuffle(ops)
        return ops

    def _rotation_compare_dump(self) -> list[Op]:
        n = self._size()
        modes = ["conformal", "perturb", "twist"]
        self.rng.shuffle(modes)
        ops = []
        for mode in modes:
            index = self.count + len(ops)
            ext = "csv" if index % 2 == 0 else "json"
            grid = self.workdir / f"grid_{index}.{ext}"
            argv = ["compare", "--surface", "torus_revolution", "--resolution", _res(n, n),
                    "--mode", mode, *_compare_args(mode, self.rng), "--grid-out", str(grid)]
            ops.append(Op(f"compare:{mode}:{ext}", tuple(argv), 0, n * n, compare=True,
                          grid_path=str(grid), grid_rows=n * n))
        return ops

    def _rotation_verify_suite(self) -> list[Op]:
        seed = self.rng.randrange(VERIFY_SEED_RANGE)
        return [Op("verify", ("verify", "--seed", str(seed)), None, 0)]
