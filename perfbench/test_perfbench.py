"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import run  # noqa: E402
from tracer import HOOKS, Tracer, span_name  # noqa: E402
from workloads import GATED, WORKLOADS, OpStream  # noqa: E402

cli = run.import_program()


@pytest.mark.parametrize("workload", GATED)
def test_gated_workload_runs_tiny_with_oracle_passing(workload, tmp_path):
    bench = run.WorkloadRun(cli, workload, seed=5, workdir=str(tmp_path), tiny=True)
    bench.warm_up(min_seconds=0.0)
    (ops, latencies), _ = bench.measure(0.0)
    assert bench.problems == []
    assert bench.failed == 0 and bench.attempted == bench.stream.count
    assert len(ops) == len(latencies) >= 1
    assert bench.accuracy["chern_abs_err_max"] <= oracle.RAW_ABS_TOL
    assert list(tmp_path.iterdir()) == []  # grids and configs are removed


def test_verify_workload_oracle_matches_exit_code(tmp_path):
    op = OpStream("verify_suite", 5, str(tmp_path), str(run.ROOT)).rotation()[0]
    _, rc, out, _, crash = run.run_op(cli, op)
    assert not crash
    assert (oracle.check(op, rc, out) == []) == (rc == 0)


def _tiny_op(kind_prefix, tmp_path, workload="reference_mix"):
    stream = OpStream(workload, 3, str(tmp_path), str(run.ROOT), tiny=True)
    return next(op for op in stream.rotation() if op.kind.startswith(kind_prefix))


def test_tampered_report_counts_as_failure(tmp_path):
    op = _tiny_op("chern:sphere", tmp_path)
    _, rc, out, _, _ = run.run_op(cli, op)
    assert oracle.check(op, rc, out) == []
    header, row = out.splitlines()
    fields = header.split(",")
    cells = row.rsplit(",", len(fields) - 1)
    cells[fields.index("rounded")] = "3"
    tampered = header + "\n" + ",".join(cells) + "\n"
    assert any("rounded" in p for p in oracle.check(op, rc, tampered))
    assert oracle.check(op, 2, out) == ["exit code 2"]
    assert oracle.check(op, 0, "not a report")


def test_tampered_compare_and_grid_count_as_failures(tmp_path):
    op = _tiny_op("compare:", tmp_path, workload="compare_dump")
    _, rc, out, _, _ = run.run_op(cli, op)
    assert oracle.check(op, rc, out) == []
    lines = Path(op.grid_path).read_text().splitlines()
    Path(op.grid_path).write_text("\n".join(lines[:-1]) + "\n")
    assert any("rows" in p for p in oracle.check(op, rc, out))
    header, row = out.splitlines()
    fields = header.split(",")
    cells = row.rsplit(",", len(fields) - 1)
    cells[fields.index("stokes_residual")] = "1e-3"
    Path(op.grid_path).write_text("\n".join(lines) + "\n")
    assert any("stokes" in p for p in oracle.check(op, rc, header + "\n" + ",".join(cells)))


def test_verify_oracle_flags_a_failed_suite():
    op = OpStream("verify_suite", 1, ".", str(run.ROOT)).rotation()[0]
    out = "ok   chern_values: fine\nFAIL expressions: residual 2e-05\n"
    assert oracle.check(op, 2, out) == ["suite failed: FAIL expressions: residual 2e-05",
                                        "exit code 2"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_argv(workload, tmp_path):
    def argvs(seed):
        stream = OpStream(workload, seed, str(tmp_path), str(run.ROOT))
        return [(op.argv, op.config_text) for _ in range(3) for op in stream.rotation()]

    assert argvs(11) == argvs(11)
    assert argvs(11) != argvs(12)


def test_every_hook_point_is_present():
    tracer = Tracer()
    originals = [getattr(sys.modules[m], a) for m, a, _ in HOOKS]
    tracer.install()
    try:
        assert tracer.absent == set()
    finally:
        tracer.uninstall()
    assert [getattr(sys.modules[m], a) for m, a, _ in HOOKS] == originals
    functions = [fn for fn in originals if callable(fn)]
    functions += [fn for group in originals if isinstance(group, tuple) for fn in group]
    assert {span_name(fn) for fn in functions} == {name for name, _ in run.SPANS}
    assert tracer.counts_nodes == {name for name, nodes in run.SPANS if nodes}


def test_missing_hook_point_is_reported_absent():
    tracer = Tracer(hooks=(("chernquad.cli", "no_such_function", None),
                           ("chernquad.no_such_module", "main", None)))
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == {"chernquad.cli.no_such_function", "chernquad.no_such_module.main"}


def test_tracer_self_time_excludes_children(tmp_path):
    tracer = Tracer()
    op = _tiny_op("compare:", tmp_path, workload="compare_dump")
    elapsed, rc, out, _, _ = run.run_op(cli, op, tracer)
    assert rc == 0
    stats = tracer.stats
    assert stats["cli.main"].calls == 1
    assert sum(s.self_s for s in stats.values()) == pytest.approx(
        stats["cli.main"].total_s, rel=1e-9)
    assert stats["cli.main"].total_s <= elapsed
    assert stats["metric.eval_metric_grid"].nodes >= 4 * op.nodes


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(GATED)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_tail_is_a_nearest_rank_percentile():
    values = list(range(1, 201))
    assert run.tail(values, 95.0) == (190, 10)
    assert run.tail([3.0, 1.0, 2.0], 100.0) == (3.0, 0)
    assert run.percentile([5, 1, 3], 50) == 3
