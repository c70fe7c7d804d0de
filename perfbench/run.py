"""graphsep benchmark: one seeded workload per run, one JSON result line.

    python3 perfbench/run.py --workload corpus-analyze --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  With --trace 0 the last line of
stdout holds the end-to-end metrics; with --trace 1 it holds the per-layer
metrics of a traced run and the tracing overhead.  --smoke runs a tiny
slice of the workload in a few seconds.  Details of every run (environment,
corpus hash, sample counts, per-family time) go to .perfbench_out/.

The workload runs in a child process (worker.py) that receives only the
generated inputs.  This process makes the inputs, asks the numpy oracle
(another child) for the expected answers, times fresh interpreters for
set-up, and runs the command-line children one at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9
CLI_REPEATS = 3
CHILD_TIMEOUT_S = 150

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cli_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def child_env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def percentiles(values):
    """p50 and p90 of values, interpolated between neighbours."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[49], cuts[89]


def timed_child(cmd):
    """Run cmd to completion; returns (wall seconds, CompletedProcess).

    subprocess's own timeout polls with sleeps of up to 50 ms, which would
    show in the timing, so a timer thread enforces the limit instead.
    """
    start = time.perf_counter()
    with subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out, err = proc.communicate()
        finally:
            watchdog.cancel()
    wall = time.perf_counter() - start
    return wall, subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def scaled_child(cmd):
    """(scaled wall seconds, raw wall seconds, CompletedProcess) of cmd.

    A bare interpreter starts just before cmd, and cmd's time is scaled by
    speed.BARE_REFERENCE_S / its time (see speed.py).
    """
    bare, _ = timed_child([sys.executable, "-c", "pass"])
    wall, proc = timed_child(cmd)
    return wall * speed.BARE_REFERENCE_S / bare, wall, proc


def measure_setup(samples):
    """Median scaled and raw wall time of fresh interpreters importing
    graphsep and its CLI."""
    cmd = [sys.executable, "-c", "import graphsep, graphsep.cli"]
    times, raw = [], []
    for k in range(samples + 1):
        scaled, wall, proc = scaled_child(cmd)
        if proc.returncode:
            raise RuntimeError(f"importing graphsep failed:\n{proc.stderr}")
        if k:  # the first import may still be writing bytecode caches
            times.append(scaled)
            raw.append(wall)
    return statistics.median(times), statistics.median(raw), len(times)


def cli_jobs(workload, ops, seed, smoke, work_dir):
    """(argument list, check) pairs for the command-line metric."""
    if workload == "suites":
        dump = str(work_dir / "dump")
        return [(args + ["--dump-dir", dump], _suite_cli_check)
                for args in workloads.suite_cli_commands(seed, smoke)]
    jobs = []
    for k, op in enumerate(o for o in ops if o["cli"]):
        path = work_dir / f"cli{k:02d}.graph"
        path.write_text(workloads.graph_text(op["family"], *op["dims"], op["edges"]))
        jobs.append((["analyze", str(path), "--format", "json"], _analyze_cli_check(op)))
    return jobs


def _suite_cli_check(out):
    return None if json.loads(out)["failures"] == [] else "verify reported failures"


def _analyze_cli_check(op):
    return lambda out: workloads.status_error(op, json.loads(out)["verdict"])


def measure_cli(jobs, repeats):
    """Scaled and raw wall times of `graphsep ...` children, run one at a
    time, and the errors seen."""
    times, raw, errors = [], [], []
    for _ in range(repeats):
        for args, check in jobs:
            scaled, wall, proc = scaled_child(
                [sys.executable, str(HERE / "cli_entry.py")] + args)
            times.append(scaled)
            raw.append(wall)
            try:
                error = (f"exit {proc.returncode}: {proc.stderr.strip()}"
                         if proc.returncode else check(proc.stdout))
            except (ValueError, KeyError) as exc:
                error = f"unreadable cli output: {exc}"
            if error:
                errors.append(error)
    return times, raw, errors


def run_worker(job):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
        capture_output=True, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def annotate_with_oracle(ops):
    """Add the numpy oracle's answers to the ops; returns numpy's version."""
    proc = subprocess.run([sys.executable, str(HERE / "oracle.py")], input=json.dumps(ops),
                          capture_output=True, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode:
        raise RuntimeError(f"oracle exited {proc.returncode}:\n{proc.stderr}")
    answers = json.loads(proc.stdout)
    for op, entangled in zip(ops, answers["oracle_entangled"]):
        if entangled is not None:
            op["oracle_entangled"] = entangled
    return answers["numpy"]


def environment(numpy_version):
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "numpy": numpy_version,
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny slice of the workload, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "graphsep" / "__init__.py").is_file():
        print(f"perfbench: no graphsep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    ops = workloads.generate(args.workload, args.seed, args.smoke)
    digest = workloads.corpus_hash(ops)
    numpy_version = annotate_with_oracle(ops)
    OUT.mkdir(exist_ok=True)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT / f"tmp-{os.getpid()}"
    work_dir.mkdir(exist_ok=True)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "corpus_sha256": digest,
              "ops_per_pass": len(ops), "environment": environment(numpy_version)}
    try:
        cli = cli_jobs(args.workload, ops, args.seed, args.smoke, work_dir)
        job = {"workload": args.workload, "ops": ops, "seconds": args.seconds,
               "trace": args.trace, "spans_path": str(OUT / f"{label}-spans.tsv.gz"),
               "cli_args": [a for a, _ in cli] if args.workload == "corpus-analyze" else []}
        if args.smoke:
            job["min_samples"] = 1
        if args.trace:
            result = run_worker(job)
            metrics = result.pop("layer")
            errors = result["errors"]
        else:
            setup_s, raw_setup_s, setup_n = measure_setup(3 if args.smoke else SETUP_SAMPLES)
            result = run_worker(job)
            cli_times, cli_raw, cli_errors = measure_cli(cli, 1 if args.smoke else CLI_REPEATS)
            values = (result["ops_per_s"], *percentiles(result["op_median_ms"]),
                      statistics.median(cli_times) * 1e3, setup_s, result["peak_rss_mb"])
            metrics = {name: {"value": v, "unit": unit}
                       for (name, unit), v in zip(END_TO_END, values)}
            result["attempted"] += len(cli_times)
            result["failed"] += len(cli_errors)
            errors = result["errors"] + cli_errors[:5]
            detail["samples"] = {
                "latency": len(ops) * result["passes"], "distinct_ops": len(ops),
                "passes": result["passes"], "cli": len(cli_times), "cli_inputs": len(cli),
                "setup": setup_n}
            detail["cli_ms"] = [t * 1e3 for t in cli_times]
            detail["raw"] = {"ops_per_s": result["raw_ops_per_s"],
                             "cli_p50_ms": statistics.median(cli_raw) * 1e3,
                             "setup_s": raw_setup_s}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted, failed = result["attempted"], result["failed"]
    detail.update({"failed_frac": failed / attempted, "errors": errors,
                   "metrics": metrics, "worker": result})
    detail_path = OUT / f"{label}.json"
    detail_path.write_text(json.dumps(detail, indent=1))

    shares = result["family_s"]
    total = sum(shares.values()) or 1.0
    print(f"perfbench {label} corpus_sha256={digest} ops_per_pass={len(ops)}")
    print("environment: " + json.dumps(detail["environment"], sort_keys=True))
    if "samples" in detail:
        print("samples: " + json.dumps(detail["samples"], sort_keys=True))
    print("family time share: " + ", ".join(
        f"{k} {v / total:.0%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}")
    for name, value in detail.get("raw", {}).items():
        print(f"  {name + ' (raw wall time)':42s} {value:14.6g}")
    print(f"  {'failed_frac':42s} {failed / attempted:14.6g} ({failed}/{attempted})")
    if result.get("absent"):
        print("absent, not wrapped: " + ", ".join(result["absent"]))
    for error in errors:
        print(f"  error: {error}")
    print(f"detail: {detail_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
