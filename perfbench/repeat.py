"""Run the benchmark on several seeds and summarise each metric.

    python3 perfbench/repeat.py --runs 10 --seconds 20 --out perfbench/baseline.json

For every workload, runs seeds 1..N one after another with --trace 0, and
reports per metric the median, the quartiles (statistics.quantiles, n=4)
and the spread: (third quartile - first quartile) / median.  Then it makes
one traced run on seed 1 and records its per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": median,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()
    summary = {}
    for workload in args.workload or workloads.WORKLOADS:
        results = [run_once(workload, seed, args.seconds, 0)
                   for seed in range(1, args.runs + 1)]
        traced = run_once(workload, 1, args.seconds, 1)
        summary[workload] = {
            "runs": len(results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": summarise(results),
            "per_layer_seed1": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        for name, m in summary[workload]["end_to_end"].items():
            print(f"{workload:15s} {name:16s} median {m['median']:12.6g} {m['unit']:5s}"
                  f" spread {m['spread']:.3f}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
