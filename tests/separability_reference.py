"""References for separability: the block line-sum check keyed by (row,
row, column) tuples, which _block_line_sums_match packs into one int, and
verdict with the degree check first, the order verdict had before its
certificates went first.  Tests hold the kernel and verdict to these."""

from __future__ import annotations

from graphsep.separability import (
    Status,
    Verdict,
    all_separable_certificate,
    block_lss_certificate,
    degree_criterion,
)


def block_line_sums_match(g, swapped):
    """Whether every q-by-q Laplacian block has equal row and column sums,
    with each edge read as {(j,i),(t,s)} when swapped: an entangled edge
    {(i,j),(s,t)} with i < s adds to row j and column t of block (i, s)."""
    excess = {}
    get = excess.get
    for (i, j), (s, t) in g.entangled_edges:
        if swapped:  # the smaller swapped row comes first
            i, j, s, t = (j, i, t, s) if j < t else (t, s, j, i)
        excess[i, s, j] = get((i, s, j), 0) + 1
        excess[i, s, t] = get((i, s, t), 0) - 1
    return not any(excess.values())


def verdict_degree_first(g):
    """verdict with the degree check first, then the all-separable product
    construction, then block line-sum symmetry in either order."""
    witness = degree_criterion(g)
    if witness is not None:
        return Verdict(Status.ENTANGLED, witness=witness)
    cert = all_separable_certificate(g) or block_lss_certificate(g)
    if cert is None:
        return Verdict(Status.UNKNOWN)
    return Verdict(Status.SEPARABLE, certificate=cert)
