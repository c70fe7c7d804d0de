"""Runs one workload's closed loop in a process of its own.

Reads a job as JSON on stdin and writes one JSON result on stdout.  The job
holds the generated ops, so this process imports graphsep and the standard
library only, and its peak resident memory is that of the workload.

The loop runs the whole op list in a fixed order, one op at a time, and
starts another pass while the run is shorter than the requested seconds or
has fewer than the minimum passes or latency samples.  Each distinct op is
summarised by its median wall time over the passes.  Every op's output is
checked after its timer stops; a wrong output or an exception counts as a
failed op and the loop goes on.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from graphsep import cli, graphfile, graphs, harness, report, separability  # noqa: E402
import speed  # noqa: E402
from tracing import OVERHEAD_METRICS, Tracer  # noqa: E402
from workloads import status_error  # noqa: E402

MIN_PASSES = 3
CALIBRATE_EVERY_S = 0.1
MIN_SAMPLES = 100
MAX_ERRORS_KEPT = 5


class CorpusAnalyze:
    """parse_graph_text, analyze, report_json_dict and render_text on one text."""

    def __init__(self, ops):
        self.inputs = [op["text"] for op in ops]

    def call(self, text):
        r = report.analyze(graphfile.parse_graph_text(text))
        return r.verdict.status.value, report.report_json_dict(r), report.render_text(r)

    def check(self, op, index, result):
        status, as_json, text = result
        if as_json["verdict"] != status or not text.startswith(f"verdict: {status}"):
            return f"{op['family']} {op['dims']}: rendered verdict differs from {status}"
        return status_error(op, status)


class SparseLarge:
    """verdict then revalidate on a graph built before the loop."""

    def __init__(self, ops):
        self.inputs = [
            graphs.build_graph(
                graphs.Dims(*op["dims"]),
                [frozenset({(i, j), (s, t)}) for i, j, s, t in op["edges"]],
            )
            for op in ops
        ]

    def call(self, g):
        v = separability.verdict(g)
        return v.status.value, separability.revalidate(g, v)

    def check(self, op, index, result):
        status, revalidated = result
        if not revalidated:
            return f"{op['family']} {op['dims']}: {status} verdict failed revalidation"
        return status_error(op, status)


class Suites:
    """One single-trial run_suite; its report must repeat exactly."""

    def __init__(self, ops):
        self.inputs = [(op["suite"], tuple(op["dims"]), op["seed"]) for op in ops]
        self.first = {}

    def call(self, spec):
        suite, dims, seed = spec
        rep = harness.run_suite(suite, dims, 1, seed)
        return rep.ok, rep.to_json_dict(include_elapsed=False)

    def check(self, op, index, result):
        ok, as_json = result
        if not ok:
            return f"suite {op['suite']} {op['dims']} seed {op['seed']}: {as_json['failures']}"
        if self.first.setdefault(index, as_json) != as_json:
            return f"suite {op['suite']} {op['dims']} seed {op['seed']}: report changed"
        return None


WORKLOADS = {"corpus-analyze": CorpusAnalyze, "sparse-large": SparseLarge, "suites": Suites}


def run_loop(work, ops, seconds, *, passes=None, tracer=None, min_samples=MIN_SAMPLES):
    """Closed loop over the op list; passes=None means run by time.

    The speed kernel runs before each pass and between ops at least every
    CALIBRATE_EVERY_S; each op's time is scaled by the mean of the two
    kernel times around it (see speed.py).
    """
    out = {"pass_s": [], "raw_pass_s": [], "latency_ms": [[] for _ in ops],
           "attempted": 0, "failed": 0, "errors": [], "family_s": {},
           "op_wall_ns": [], "kernel_s": []}
    start = perf_counter_ns()
    while True:
        out["kernel_s"].append(speed.kernel_seconds())
        segment, segment_start = [], perf_counter_ns()
        pass_s = raw_pass_s = 0.0
        for index, (op, item) in enumerate(zip(ops, work.inputs)):
            if tracer is not None:
                tracer.op = len(out["op_wall_ns"])
            error = None
            t0 = perf_counter_ns()
            try:
                result = work.call(item)
            except Exception as exc:  # a crashing op is a failed op, not a crashed run
                error = f"{op['family']} {op['dims']}: {type(exc).__name__}: {exc}"
            t1 = perf_counter_ns()
            if error is None:
                error = work.check(op, index, result)
            out["attempted"] += 1
            out["op_wall_ns"].append(t1 - t0)
            segment.append((index, op["family"], (t1 - t0) / 1e9))
            if error is not None:
                out["failed"] += 1
                if len(out["errors"]) < MAX_ERRORS_KEPT:
                    out["errors"].append(error)
            if index == len(ops) - 1 or perf_counter_ns() - segment_start >= CALIBRATE_EVERY_S * 1e9:
                out["kernel_s"].append(speed.kernel_seconds())
                scale = speed.REFERENCE_S * 2 / (out["kernel_s"][-2] + out["kernel_s"][-1])
                for k, family, raw in segment:
                    out["latency_ms"][k].append(raw * scale * 1e3)
                    out["family_s"][family] = out["family_s"].get(family, 0.0) + raw
                    pass_s += raw * scale
                    raw_pass_s += raw
                segment, segment_start = [], perf_counter_ns()
        out["pass_s"].append(pass_s)
        out["raw_pass_s"].append(raw_pass_s)
        done = len(out["pass_s"])
        if passes is not None:
            if done >= passes:
                break
        elif (perf_counter_ns() - start >= seconds * 1e9 and done >= MIN_PASSES
              and out["attempted"] >= min_samples):
            break
    return out


def ops_per_s(loop, n_ops, key="pass_s"):
    """Ops in one pass over the median pass time (op time only)."""
    return n_ops / statistics.median(loop[key])


def run_cli_in_process(tracer, cli_args):
    """cli.main for each argument list, stdout discarded, ops numbered -1, -2, ..."""
    failed = 0
    for k, argv in enumerate(cli_args):
        tracer.op = -(k + 1)
        with contextlib.redirect_stdout(io.StringIO()):
            failed += cli.main(argv) != 0
    return failed


def peak_rss_mb():
    """High-water resident memory of this process image.

    ru_maxrss also keeps the peak of the parent image this process was
    forked from, so VmHWM is read first where the kernel provides it.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def write_spans(tracer, path):
    """Every span as a tab-separated line: id, parent, name, op, start, end, self (ns)."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("id\tparent\tname\top\tstart_ns\tend_ns\tself_ns\n")
        for span in tracer.spans:
            fh.write("\t".join(map(str, span)) + "\n")


def summary(loop, n_ops):
    return {
        "passes": len(loop["pass_s"]),
        "pass_s": loop["pass_s"],
        "raw_pass_s": loop["raw_pass_s"],
        "kernel_s": loop["kernel_s"],
        "ops_per_s": ops_per_s(loop, n_ops),
        "raw_ops_per_s": ops_per_s(loop, n_ops, "raw_pass_s"),
        "op_median_ms": [statistics.median(ms) for ms in loop["latency_ms"]],
        "op_latency_ms": loop["latency_ms"],
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "errors": loop["errors"],
        "family_s": dict(sorted(loop["family_s"].items())),
    }


def main():
    job = json.load(sys.stdin)
    ops = job["ops"]
    work = WORKLOADS[job["workload"]](ops)
    min_samples = job.get("min_samples", MIN_SAMPLES)
    if not job["trace"]:
        loop = run_loop(work, ops, job["seconds"], min_samples=min_samples)
        result = summary(loop, len(ops))
    else:
        tracer = Tracer()
        with tracer:
            # Half the time traced, then the same passes untraced.
            traced = run_loop(work, ops, job["seconds"] / 2, tracer=tracer,
                              min_samples=min_samples)
            cli_failed = run_cli_in_process(tracer, job["cli_args"])
        untraced = run_loop(work, ops, 0, passes=len(traced["pass_s"]))
        self_ns = tracer.self_ns_by_op()
        over = [k for k, wall in enumerate(traced["op_wall_ns"]) if self_ns.get(k, 0) > wall]
        result = summary(traced, len(ops))
        result["attempted"] += untraced["attempted"] + len(job["cli_args"])
        result["failed"] += untraced["failed"] + cli_failed + len(over)
        result["errors"] += untraced["errors"][:MAX_ERRORS_KEPT]
        if over:
            result["errors"].append(f"{len(over)} traced ops with self time above wall time")
        if cli_failed:
            result["errors"].append(f"{cli_failed} in-process cli calls failed")
        traced_rate = ops_per_s(traced, len(ops))
        untraced_rate = ops_per_s(untraced, len(ops))
        layer = tracer.layer_metrics(traced["attempted"], len(job["cli_args"]))
        values = (traced_rate, untraced_rate, untraced_rate / traced_rate)
        for (name, unit, _), value in zip(OVERHEAD_METRICS, values):
            layer[name] = {"value": value, "unit": unit}
        result["layer"] = layer
        write_spans(tracer, job["spans_path"])
        result["absent"] = tracer.absent
        result["spans"] = len(tracer.spans)
    result["peak_rss_mb"] = peak_rss_mb()
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
