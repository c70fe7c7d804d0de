"""The benchmark's own tests; run with `python -m pytest perfbench` from the root.

They are kept out of the package's test suite because the smoke runs start
child interpreters; together they take about 15 seconds.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import tracing
import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _metric_names(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert set(result["metrics"]) == _metric_names(kind)


def test_benchmark_json_lists_the_metrics_the_code_prints():
    import run

    assert _metric_names("end_to_end") == {name for name, _ in run.END_TO_END}
    assert _metric_names("per_layer") == (
        {m[0] for m in tracing.LAYER_METRICS} | {m[0] for m in tracing.OVERHEAD_METRICS})


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "suites", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_same_seed_same_inputs():
    for workload in workloads.WORKLOADS:
        a = workloads.corpus_hash(workloads.generate(workload, 11))
        assert a == workloads.corpus_hash(workloads.generate(workload, 11))
        assert a != workloads.corpus_hash(workloads.generate(workload, 12))


def _all_bindings():
    out = {}
    for module in tracing.graphsep_modules():
        for key, value in vars(module).items():
            out[(module.__name__, key)] = value
    sym = worker.graphs.SymMatrix
    for key, value in vars(sym).items():
        out[("SymMatrix", key)] = value
    return out


def test_wrappers_are_installed_everywhere_and_removed_exactly():
    before = _all_bindings()
    tracer = tracing.Tracer().install()
    try:
        assert tracer.absent == []
        during = _all_bindings()
        for module in ("graphsep", "graphsep.matrix", "graphsep.separability"):
            assert during[(module, "kron")] is not before[(module, "kron")]
        assert during[("SymMatrix", "__post_init__")] is not before[("SymMatrix", "__post_init__")]
    finally:
        tracer.uninstall()
    after = _all_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _graph_workloads():
    for name in ("corpus-analyze", "sparse-large"):
        ops = oracle.annotate(workloads.generate(name, 5, smoke=True))
        yield ops, worker.WORKLOADS[name](ops)


def test_traced_op_returns_the_untraced_result():
    for ops, work in _graph_workloads():
        plain = [work.call(item) for item in work.inputs]
        with tracing.Tracer() as tracer:
            traced = [work.call(item) for item in work.inputs]
        assert traced == plain
        assert tracer.spans


def test_self_time_never_exceeds_op_wall_time():
    ops, work = next(_graph_workloads())
    tracer = tracing.Tracer()
    with tracer:
        loop = worker.run_loop(work, ops, 0, passes=1, tracer=tracer)
    self_ns = tracer.self_ns_by_op()
    assert all(self_ns[k] <= wall for k, wall in enumerate(loop["op_wall_ns"]))


def test_wrong_expected_verdict_counts_as_failure():
    for ops, work in _graph_workloads():
        clean = worker.run_loop(work, ops, 0, passes=1)
        assert clean["failed"] == 0
        flip = {"separable": "entangled", "entangled": "separable"}
        known = next(op for op in ops if op["expect"] is not None)
        known["expect"] = flip[known["expect"]]
        other = next(op for op in ops if op is not known)
        other["oracle_entangled"] = not other["oracle_entangled"]
        wrong = worker.run_loop(work, ops, 0, passes=1)
        assert wrong["failed"] == 2 and wrong["attempted"] == len(ops)


def test_changed_suite_report_counts_as_failure():
    ops = workloads.generate("suites", 2, smoke=True)
    work = worker.Suites(ops)
    assert worker.run_loop(work, ops, 0, passes=1)["failed"] == 0
    work.first[0] = {"tampered": True}
    assert worker.run_loop(work, ops, 0, passes=1)["failed"] == 1


def test_oracle_on_known_families():
    star = workloads.family_edges(None, "star", 3, 3, 0, 0)
    complete = workloads.family_edges(None, "complete", 3, 3, 0, 0)
    assert oracle.min_pt_eigenvalue(3, 3, star) < oracle.NEGATIVE_TOL
    assert oracle.min_pt_eigenvalue(3, 3, complete) >= oracle.NEGATIVE_TOL
