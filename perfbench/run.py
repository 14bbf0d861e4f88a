"""chernquad benchmark: seeded CLI workloads, checked outputs, one JSON line.

Run from the repository root:

    python3 perfbench/run.py --workload torus_1m --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 25 --trace 1
    python3 -m pytest perfbench         # tests of the benchmark itself

Each workload runs in one process as a closed loop with one client: the
next ``chernquad.cli.main(argv)`` call starts when the previous one has
returned and its output has been checked (``oracle.py``).  ``--all``
runs every workload in its own fresh process, one at a time, and prints
a summary table.

With ``--trace 0`` the last line of standard output carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of ``tracer.py``, measured on every other operation so that traced and
untraced latencies of the same run give the tracing overhead.  The
program itself is never edited: it is imported from ``src/`` of the
checkout, and the benchmark exits with status 2 without a result when
that source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import oracle
from workloads import TAIL_PERCENTILE, WORKLOADS, OpStream

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# one BLAS/OpenMP thread, so the measured process is the only load
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
SETUP_STARTS = 5
WARMUP_S = 1.0

END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("nodes_per_s", "nodes/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# Every span the hook table yields at the parent commit, in a fixed
# order so the per-layer metric names do not depend on the program.
# True marks spans that count nodes.
SPANS = (
    ("cli.main", False),
    ("config.load_config", False),
    ("experiment.run", False),
    ("experiment.grid_rows", True),
    ("zoo.make_surface", False),
    ("zoo.custom_surface", False),
    ("zoo.conformal_surface", False),
    ("zoo.perturbed_surface", False),
    ("zoo.twisted_surface", False),
    ("zoo.octagon_vertices", False),
    ("zoo.sphere", False),
    ("zoo.torus_revolution", False),
    ("zoo.flat_torus", False),
    ("zoo.poincare_octagon", False),
    ("chern.chern_number", False),
    ("chern.stokes_residual", False),
    ("curvature.connection_difference", True),
    ("curvature.curvature_report_grid", True),
    ("curvature.gauss_curvature_brioschi", False),
    ("metric.eval_metric_grid", True),
    ("metric.eval_metric_jet", False),
    ("expressions.parse", False),
    ("expressions.eval_jet", False),
    ("quadrature.build_nodes", True),
    ("quadrature.reduce_sum", True),
    ("verify.check_chern_values", False),
    ("verify.check_curvature_identity", False),
    ("verify.check_curvature_oracles", False),
    ("verify.check_complex_structure", False),
    ("verify.check_bundle_isomorphism", False),
    ("verify.check_conformal_invariance", False),
    ("verify.check_metric_independence", False),
    ("verify.check_quadrature", False),
    ("verify.check_expressions", False),
    ("verify.check_determinism", False),
    ("complex_structure.complex_structure", False),
    ("complex_structure.area_form", False),
    ("complex_structure.metric_inner", False),
    ("complex_structure.parallelogram_residual", False),
    ("complex_structure.bundle_isomorphism", False),
)

# Spans and layers that every gated workload reaches.  Only these report
# times in the result line: a span a workload never reaches would read
# 0 s on every run.  The span table printed above the result line has
# the times of every span.
TIMED_SPANS = (
    "cli.main", "experiment.run", "zoo.make_surface", "zoo.torus_revolution",
    "chern.chern_number", "curvature.curvature_report_grid",
    "metric.eval_metric_grid", "quadrature.build_nodes", "quadrature.reduce_sum",
)
TIMED_LAYERS = ("cli", "experiment", "zoo", "chern", "curvature", "metric", "quadrature")


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for name, counts_nodes in SPANS:
        units[f"{name}.calls"] = "calls/op"
        if counts_nodes:
            units[f"{name}.nodes"] = "nodes/op"
        if name in TIMED_SPANS:
            units[f"{name}.total_s"] = "s/op"
            units[f"{name}.self_s"] = "s/op"
    for layer in TIMED_LAYERS:
        units[f"layer.{layer}.self_s"] = "s/op"
    units["metric.evals_per_node"] = "ratio"
    units["trace.unspanned_s"] = "s/op"
    units["trace.overhead_ms"] = "ms"
    return units


# ---------------------------------------------------------------------------
# statistics


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def tail(values, pct: float) -> tuple[float, int]:
    """(nearest-rank percentile, number of samples beyond it)."""
    n = len(values)
    return percentile(values, pct), n - int(-(-n * pct // 100))


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# running operations


def _program_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def measure_setup(starts: int = SETUP_STARTS) -> list[float]:
    """Wall seconds for fresh interpreters to finish ``import chernquad.cli``."""
    times = []
    for _ in range(starts):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import chernquad.cli"], cwd=str(ROOT),
                       env=_program_env(), check=True, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        times.append(time.perf_counter() - start)
    return times


def import_program():
    """Import chernquad.cli from the checkout's src/ (never an installed copy)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import chernquad.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "chernquad").resolve():
        raise ImportError(f"chernquad imported from {cli.__file__}, not {SRC}")
    return cli


def run_op(cli, op, tracer=None):
    """(seconds, exit code, stdout, stderr, traceback or "") of one operation."""
    if op.config_text:
        Path(op.config_path).write_text(op.config_text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    rc, crash = None, ""
    if tracer is not None:
        tracer.install()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = cli.main(list(op.argv))
            finally:
                elapsed = time.perf_counter() - start
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an op that raises counts as failed; keep going
        crash = traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return elapsed, rc, out.getvalue(), err.getvalue(), crash


class WorkloadRun:
    """Warm-up, timed loop and bookkeeping for one workload in this process."""

    def __init__(self, cli, workload: str, seed: int, workdir: str, tiny: bool = False):
        self.cli = cli
        self.stream = OpStream(workload, seed, workdir, str(ROOT), tiny=tiny)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.accuracy: dict[str, float] = {}
        self.digest = hashlib.sha256()

    def execute(self, op, tracer=None, record_digest=False) -> float:
        elapsed, rc, out, err, crash = run_op(self.cli, op, tracer)
        self.attempted += 1
        if crash:
            problems = ["raised:\n" + crash]
        else:
            problems = oracle.check(op, rc, out, self.accuracy)
        if problems:
            self.failed += 1
            detail = "; ".join(problems) + (f"; stderr: {err.strip()}" if err.strip() else "")
            self.problems.append(f"{op.kind} {' '.join(op.argv)}: {detail}")
        if record_digest:
            self.digest.update(out.encode())
            if op.grid_path and os.path.exists(op.grid_path):
                self.digest.update(Path(op.grid_path).read_bytes())
        for path in (op.grid_path, op.config_path):
            if path and os.path.exists(path):
                os.remove(path)
        return elapsed

    def warm_up(self, min_seconds: float = WARMUP_S) -> None:
        """Whole rotations for at least ``min_seconds``; the first one
        feeds the report digest."""
        start = time.perf_counter()
        first = True
        while first or time.perf_counter() - start < min_seconds:
            for op in self.stream.rotation():
                self.execute(op, record_digest=first)
            first = False

    def measure(self, seconds: float, tracer=None):
        """Whole rotations until ``seconds`` of wall time have passed.

        Returns (ops, latencies) of untraced ops and the same for traced
        ones; with a tracer every other op is traced."""
        untraced, traced = ([], []), ([], [])
        start = time.perf_counter()
        while (not untraced[1] or (tracer is not None and not traced[1])
               or time.perf_counter() - start < seconds):
            for op in self.stream.rotation():
                use = tracer if tracer is not None and len(untraced[1]) > len(traced[1]) else None
                elapsed = self.execute(op, tracer=use)
                side = traced if use is not None else untraced
                side[0].append(op)
                side[1].append(elapsed)
        return untraced, traced


def end_to_end_metrics(workload, ops, latencies, setup_times, peak_rss_mb) -> dict:
    """The END_TO_END metrics; nodes_per_s is left out for verify_suite,
    which requests no quadrature nodes."""
    nodes = sum(op.nodes for op in ops)
    values = {
        "latency_p50_ms": statistics.median(latencies) * 1000.0,
        "latency_tail_ms": tail(latencies, TAIL_PERCENTILE[workload])[0] * 1000.0,
        "ops_per_s": len(latencies) / sum(latencies),
        "nodes_per_s": nodes / sum(latencies),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_times),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END
            if name != "nodes_per_s" or nodes}


def per_layer_metrics(tracer, traced, untraced) -> dict:
    ops, latencies = traced
    n = len(latencies)
    stats = tracer.stats
    values = {}
    for name, counts_nodes in SPANS:
        s = stats.get(name)
        values[f"{name}.calls"] = (s.calls if s else 0) / n
        if counts_nodes:
            values[f"{name}.nodes"] = (s.nodes if s else 0) / n
        if name in TIMED_SPANS:
            values[f"{name}.total_s"] = (s.total_s if s else 0.0) / n
            values[f"{name}.self_s"] = (s.self_s if s else 0.0) / n
    for layer in TIMED_LAYERS:
        values[f"layer.{layer}.self_s"] = sum(
            s.self_s for name, s in stats.items() if name.split(".")[0] == layer) / n
    evaluated = stats["metric.eval_metric_grid"].nodes if "metric.eval_metric_grid" in stats else 0
    requested = sum(op.nodes for op in ops)
    if requested == 0:  # verify takes no resolution: nodes the quadrature built
        requested = stats["quadrature.build_nodes"].nodes if "quadrature.build_nodes" in stats else 0
    values["metric.evals_per_node"] = evaluated / requested if requested else 0.0
    root = stats["cli.main"].total_s if "cli.main" in stats else 0.0
    values["trace.unspanned_s"] = (sum(latencies) - root) / n
    values["trace.overhead_ms"] = (statistics.median(latencies)
                                   - statistics.median(untraced[1])) * 1000.0
    units = per_layer_units()
    return {name: {"value": values[name], "unit": units[name]} for name in units}


# ---------------------------------------------------------------------------
# reporting


def _print_span_table(tracer, traced) -> None:
    ops, latencies = traced
    n = len(latencies)
    op_time = sum(latencies)
    print(f"spans over {n} traced ops ({op_time / n * 1000:.3f} ms/op):")
    print(f"  {'span':44s} {'calls/op':>10s} {'total ms/op':>12s} "
          f"{'self ms/op':>11s} {'self %':>7s} {'nodes/op':>12s}")
    rows = sorted(tracer.stats.items(), key=lambda item: -item[1].self_s)
    for name, s in rows:
        if not s.calls:
            continue
        nodes = f"{s.nodes / n:12.0f}" if name in tracer.counts_nodes else f"{'':12s}"
        print(f"  {name:44s} {s.calls / n:10.1f} {s.total_s / n * 1000:12.3f} "
              f"{s.self_s / n * 1000:11.3f} {100 * s.self_s / op_time:6.1f}% {nodes}")
    covered = sum(s.self_s for s in tracer.stats.values())
    print(f"  span self times sum to {covered / n * 1000:.3f} ms/op "
          f"({100 * covered / op_time:.2f}% of traced op time); "
          f"unspanned remainder {(op_time - covered) / n * 1000:.3f} ms/op")
    for name in sorted(tracer.absent):
        print(f"  hook point absent: {name}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run in this process; prints the report and returns
    the result object."""
    if not (SRC / "chernquad" / "cli.py").is_file():
        raise FileNotFoundError(f"no chernquad sources under {SRC}")
    setup_times = [] if trace else measure_setup()
    start = time.perf_counter()
    cli = import_program()
    import_s = time.perf_counter() - start
    rss_after_import = _rss_mb()
    from tracer import Tracer

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=str(ROOT))
    try:
        bench = WorkloadRun(cli, workload, seed, workdir)
        bench.warm_up()
        tracer = Tracer() if trace else None
        untraced, traced = bench.measure(seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = _rss_mb() - rss_after_import

    ops, latencies = untraced
    print(f"workload {workload} seed {seed}: {bench.attempted} ops attempted, "
          f"{bench.failed} failed (error_rate {bench.failed / bench.attempted:.4f})")
    for problem in bench.problems[:20]:
        print(f"  FAILED {problem}")
    print(f"  report digest (first rotation): {bench.digest.hexdigest()}")
    print(f"  in-process import {import_s:.3f} s")
    pct = TAIL_PERCENTILE[workload]
    print(f"  untraced ops {len(latencies)}; latency_tail_ms is p{pct:g} with "
          f"{tail(latencies, pct)[1]} samples beyond")
    by_kind: dict[str, list[float]] = {}
    for op, seconds_taken in zip(ops, latencies):
        by_kind.setdefault(op.kind, []).append(seconds_taken)
    for kind, values in sorted(by_kind.items()):
        print(f"  {kind}: {len(values)} ops, median {statistics.median(values) * 1000:.2f} ms")
    for name, value in sorted(bench.accuracy.items()):
        print(f"  {name} {value:.3e}")
    if trace:
        _print_span_table(tracer, traced)
        metrics = per_layer_metrics(tracer, traced, untraced)
    else:
        metrics = end_to_end_metrics(workload, ops, latencies, setup_times, peak_rss_mb)
    for name, metric in metrics.items():
        print(f"  {name} {metric['value']:.6g} {metric['unit']}")
    return {"correct": bench.failed == 0, "attempted": bench.attempted,
            "failed": bench.failed, "metrics": metrics}


def run_all(args) -> int:
    """Every workload in its own fresh process, one at a time."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=str(ROOT), stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {workload}: exit {proc.returncode}")
            return proc.returncode or 1
        results[workload] = json.loads(lines[-1])
    print("summary:")
    for workload, result in results.items():
        cells = ", ".join(f"{k} {m['value']:.6g} {m['unit']}"
                          for k, m in result["metrics"].items()
                          if not k.endswith(".calls"))
        print(f"  {workload}: correct {result['correct']}, {result['failed']}/"
              f"{result['attempted']} failed; {cells}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in its own fresh process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("give --workload NAME or --all")
    os.environ.update(THREAD_ENV)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (OSError, ImportError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
