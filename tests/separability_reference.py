"""The block line-sum check keyed by (row, row, column) tuples: a reference
for separability._block_line_sums_match, which packs each triple into one
int.  Tests hold the int-keyed kernel against this one."""

from __future__ import annotations


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
