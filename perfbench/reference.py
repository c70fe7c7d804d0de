"""Re-measure the single-graph reference rows quoted in ROADMAP.md.

    python3 perfbench/reference.py

Best of three perf_counter timings per row, printed as JSON next to the
figure ROADMAP.md gives for the same row, so the benchmark's first baseline
can be cross-checked against those hand measurements.  The speed-kernel
time is printed too (see speed.py); scaled_ms is ms x REFERENCE_S / kernel.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from graphsep import (  # noqa: E402
    Dims,
    analyze,
    complete_graph,
    run_suite,
    single_edge_graph,
    star_graph,
    verdict,
)

# (row, call, milliseconds quoted in ROADMAP.md)
ROWS = (
    ("8x8 complete verdict", lambda: verdict(complete_graph(Dims(8, 8))), 141),
    ("8x8 complete analyze", lambda: analyze(complete_graph(Dims(8, 8))), 342),
    ("8x8 star verdict", lambda: verdict(star_graph(Dims(8, 8))), 1.5),
    ("8x8 star analyze", lambda: analyze(star_graph(Dims(8, 8))), 78),
    ("30x30 single entangled edge verdict",
     lambda: verdict(single_edge_graph(Dims(30, 30), {(1, 1), (2, 2)})), 274),
    ("suite 0, 4x4, 200 trials, serial", lambda: run_suite(0, (4, 4), 200, 0), 1920),
)


def best_ms(call, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def main():
    rows = []
    for name, call, roadmap_ms in ROWS:
        kernel = statistics.median(speed.kernel_seconds() for _ in range(5))
        ms = best_ms(call)
        rows.append({"row": name, "ms": ms, "scaled_ms": ms * speed.REFERENCE_S / kernel,
                     "roadmap_ms": roadmap_ms, "kernel_s": kernel})
    print(json.dumps(rows, indent=1))


if __name__ == "__main__":
    main()
