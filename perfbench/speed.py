"""Machine-speed calibration.

On a shared 2-vCPU virtual machine the same pure-Python code ran at speeds
up to 2x apart, switching every few seconds as other tenants' load
changed.  A run cannot avoid that, so each timing is scaled by how fast a
reference that uses no graphsep code ran next to it:

- in-process op times by a fixed pure-Python kernel timed around them,
  at least every 0.1 s because the speed also changed within a second:
  time x REFERENCE_S / kernel time;
- child-process times by a bare interpreter (`python -c pass`) started
  just before each child: time x BARE_REFERENCE_S / bare time.  Over
  10-second windows the ratio of a graphsep import to a bare start-up
  moved by under 1% while both moved by 8%.

A change to graphsep moves the timings and not the references, so the
scaled numbers keep every real change.  Raw timings are kept next to them
in each run's detail file.
"""

from __future__ import annotations

from time import perf_counter_ns

# Kernel time taken as the reference speed: the median on a 2-vCPU
# x86_64 VM at 2.1 GHz under CPython 3.11.
REFERENCE_S = 0.0040
# Wall time of `python -c pass` taken as the reference start-up speed.
BARE_REFERENCE_S = 0.060
_ORDER = 40
_REPS = 8


def _kernel():
    n = _ORDER
    m = tuple(tuple((r * 7 + c * 3) % 11 - 5 for c in range(n)) for r in range(n))
    t = tuple(tuple(m[c][r] for c in range(n)) for r in range(n))
    total = 0
    for r in range(n):
        row, col = m[r], t[r]
        for c in range(n):
            total += row[c] * col[c]
    return total


def kernel_seconds():
    """Wall time of one calibration measurement, about REFERENCE_S."""
    start = perf_counter_ns()
    for _ in range(_REPS):
        _kernel()
    return (perf_counter_ns() - start) / 1e9
