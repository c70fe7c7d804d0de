"""Independent numerical oracle for the correctness gate.

Builds the graph Laplacian with numpy, partially transposes it with a
reshape and an axis swap, and takes the smallest eigenvalue.  None of this
uses graphsep code.

run.py calls it as a child process (ops as JSON on stdin, answers on
stdout), so numpy and its threads never live in the process that times
the command-line children and the set-up imports.
"""

from __future__ import annotations

import json
import sys

import numpy as np

# A state counts as entangled when the partially transposed Laplacian has an
# eigenvalue below this.
NEGATIVE_TOL = -1e-9


def pt_laplacian(p, q, edges):
    n = p * q
    lap = np.zeros((n, n))
    for i, j, s, t in edges:
        u, v = (i - 1) * q + (j - 1), (s - 1) * q + (t - 1)
        if u == v:
            continue
        lap[u, v] -= 1.0
        lap[v, u] -= 1.0
        lap[u, u] += 1.0
        lap[v, v] += 1.0
    # Entry ((i,j),(s,t)) moves to ((i,t),(s,j)).
    return lap.reshape(p, q, p, q).transpose(0, 3, 2, 1).reshape(n, n)


def min_pt_eigenvalue(p, q, edges):
    """Smallest eigenvalue of the partially transposed Laplacian.

    Rows that are entirely zero contribute eigenvalue 0 and are dropped
    before the eigen-solve, which keeps sparse 900-vertex graphs cheap.
    """
    m = pt_laplacian(p, q, edges)
    live = np.flatnonzero(np.any(m != 0, axis=1))
    lowest = float(np.linalg.eigvalsh(m[np.ix_(live, live)])[0]) if live.size else 0.0
    return min(lowest, 0.0) if live.size < m.shape[0] else lowest


def annotate(ops):
    """Add the oracle's answer to every graph op, in place."""
    for op in ops:
        if "edges" in op:
            op["oracle_entangled"] = bool(
                min_pt_eigenvalue(*op["dims"], op["edges"]) < NEGATIVE_TOL
            )
    return ops


def main():
    ops = annotate(json.load(sys.stdin))
    json.dump({"numpy": np.__version__,
               "oracle_entangled": [op.get("oracle_entangled") for op in ops]}, sys.stdout)


if __name__ == "__main__":
    main()
