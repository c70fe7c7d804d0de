"""Both edge pools listed by brute force and sorted: a reference for the
index unrankers, which are the only place graphsep writes each pool's
order.  Tests take expected draws and unranked pairs from here."""

from __future__ import annotations


def separable_pool(dims):
    p, q = dims
    pool = [((i, j), (i, t)) for i in range(1, p + 1)
            for j in range(1, q + 1) for t in range(j + 1, q + 1)]
    pool += [((i, j), (s, j)) for j in range(1, q + 1)
             for i in range(1, p + 1) for s in range(i + 1, p + 1)]
    return sorted(pool)


def entangled_pool(dims):
    p, q = dims
    return sorted(
        ((i, j), (s, t))
        for i in range(1, p + 1) for s in range(i + 1, p + 1)
        for j in range(1, q + 1) for t in range(1, q + 1) if j != t
    )
