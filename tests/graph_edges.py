"""The edges a graph holds, as build_graph takes them: each sorted pair,
then each loop as a one-vertex tuple.  Tests that rebuild, relabel or count
a graph's edges read them from here."""

from __future__ import annotations


def edges_of(g):
    return [*g.sorted_edges, *((v,) for v in g.loops)]
