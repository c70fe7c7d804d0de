"""Graphs on a p-by-q vertex grid and their exact density matrices.

Vertices are pairs (i, j) with 1 <= i <= p and 1 <= j <= q, laid out
row-major so (i, j) has 1-based linear index (i - 1) * q + j.  An edge is a
frozenset of two vertices, or of one vertex for a loop.  Loops never enter
the matrices; they are kept on the graph so callers can still see them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb
from typing import FrozenSet, Iterable, NamedTuple

from .errors import (
    BadDimsError,
    BadParamsError,
    EmptyEdgeSetError,
    OnlyLoopsError,
    OutOfRangeError,
)
from .matrix import SymMatrix

Vertex = tuple[int, int]
Edge = FrozenSet[Vertex]


class Dims(NamedTuple):
    p: int
    q: int

    @property
    def n(self) -> int:
        return self.p * self.q


def linear_index(v: Vertex, dims: Dims) -> int:
    """1-based row-major position of (i, j)."""
    i, j = v
    return (i - 1) * dims.q + j


class EdgeClass(Enum):
    SAME_ROW = "separable-same-row"
    SAME_COLUMN = "separable-same-column"
    ENTANGLED = "entangled"
    LOOP = "loop"


def classify_edge(edge: Edge, dims: Dims | None = None) -> EdgeClass:
    """Loop, same-row, same-column, or entangled (both coordinates differ)."""
    if dims is not None:
        for (i, j) in edge:
            if not (1 <= i <= dims.p and 1 <= j <= dims.q):
                raise OutOfRangeError(f"vertex ({i},{j}) outside {dims.p}x{dims.q} grid")
    if len(edge) == 1:
        return EdgeClass.LOOP
    (i, j), (s, t) = sorted(edge)
    if i == s:
        return EdgeClass.SAME_ROW
    if j == t:
        return EdgeClass.SAME_COLUMN
    return EdgeClass.ENTANGLED


def canonical_edge(u: Vertex, v: Vertex, dims: Dims) -> tuple[Vertex, Vertex]:
    """The edge's vertices ordered by linear index."""
    if linear_index(u, dims) <= linear_index(v, dims):
        return (u, v)
    return (v, u)


@dataclass(frozen=True)
class Graph:
    dims: Dims
    edges: frozenset[Edge]

    @property
    def n(self) -> int:
        return self.dims.n

    @property
    def sorted_edges(self) -> tuple[tuple[Vertex, Vertex], ...]:
        """Non-loop edges as canonical pairs, sorted by linear indices."""
        pairs = [
            canonical_edge(*sorted(e), self.dims) for e in self.edges if len(e) == 2
        ]
        key = lambda pr: (linear_index(pr[0], self.dims), linear_index(pr[1], self.dims))
        return tuple(sorted(pairs, key=key))

    @property
    def non_loop_edges(self) -> frozenset[Edge]:
        return frozenset(e for e in self.edges if len(e) == 2)

    @property
    def loops(self) -> tuple[Vertex, ...]:
        return tuple(sorted(next(iter(e)) for e in self.edges if len(e) == 1))

    @property
    def degree_sum(self) -> int:
        return 2 * len(self.non_loop_edges)


def build_graph(dims: Dims, edges: Iterable[Edge | Iterable[Vertex]]) -> Graph:
    """Validate vertices, drop duplicates, and require a non-loop edge."""
    dims = Dims(*dims)
    if dims.p < 1 or dims.q < 1:
        raise BadDimsError(f"grid dims must be positive, got {dims.p}x{dims.q}")
    edge_set = set()
    for raw in edges:
        e = frozenset(raw)
        if not 1 <= len(e) <= 2:
            raise BadParamsError(f"edge needs one or two vertices, got {len(e)}")
        for (i, j) in e:
            if not (1 <= i <= dims.p and 1 <= j <= dims.q):
                raise OutOfRangeError(
                    f"vertex ({i},{j}) outside {dims.p}x{dims.q} grid"
                )
        edge_set.add(e)
    if not edge_set:
        raise EmptyEdgeSetError("graph needs at least one edge")
    if all(len(e) == 1 for e in edge_set):
        raise OnlyLoopsError("graph has loops only; no matrix is defined")
    return Graph(dims, frozenset(edge_set))


def adjacency_matrix(g: Graph) -> SymMatrix:
    n = g.n
    a = [[0] * n for _ in range(n)]
    for u, v in g.sorted_edges:
        r, c = linear_index(u, g.dims) - 1, linear_index(v, g.dims) - 1
        a[r][c] = a[c][r] = 1
    return SymMatrix(tuple(tuple(row) for row in a))


def laplacian(g: Graph) -> SymMatrix:
    """Degree matrix minus adjacency matrix; loops contribute nothing."""
    n = g.n
    a = [[0] * n for _ in range(n)]
    for u, v in g.sorted_edges:
        r, c = linear_index(u, g.dims) - 1, linear_index(v, g.dims) - 1
        a[r][c] -= 1
        a[c][r] -= 1
        a[r][r] += 1
        a[c][c] += 1
    return SymMatrix(tuple(tuple(row) for row in a))


def density_matrix(g: Graph) -> SymMatrix:
    """Laplacian scaled to unit trace."""
    return laplacian(g).scaled(Fraction(1, g.degree_sum))


def tensor_product(g: Graph, h: Graph) -> Graph:
    """Graph whose adjacency matrix is the Kronecker product of the factors'.

    Vertices of the result live on a g.n-by-h.n grid.  Each pair of non-loop
    edges {u1,v1}, {u2,v2} contributes the two cross edges
    {(u1,u2),(v1,v2)} and {(u1,v2),(v1,u2)} written in linear coordinates.
    """
    out_dims = Dims(g.n, h.n)
    edges = set()
    for u1, v1 in g.sorted_edges:
        a, b = linear_index(u1, g.dims), linear_index(v1, g.dims)
        for u2, v2 in h.sorted_edges:
            x, y = linear_index(u2, h.dims), linear_index(v2, h.dims)
            edges.add(frozenset({(a, x), (b, y)}))
            edges.add(frozenset({(a, y), (b, x)}))
    return build_graph(out_dims, edges)


def complete_graph(dims: Dims) -> Graph:
    """Every pair of distinct grid vertices joined."""
    dims = Dims(*dims)
    verts = [(i, j) for i in range(1, dims.p + 1) for j in range(1, dims.q + 1)]
    edges = [
        frozenset({verts[a], verts[b]})
        for a in range(len(verts))
        for b in range(a + 1, len(verts))
    ]
    return build_graph(dims, edges)


def star_graph(dims: Dims) -> Graph:
    """Vertex (1, 1) joined to every other grid vertex."""
    dims = Dims(*dims)
    hub = (1, 1)
    edges = [
        frozenset({hub, (i, j)})
        for i in range(1, dims.p + 1)
        for j in range(1, dims.q + 1)
        if (i, j) != hub
    ]
    return build_graph(dims, edges)


def single_edge_graph(dims: Dims, edge: Edge | Iterable[Vertex]) -> Graph:
    """One edge whose endpoints differ in both coordinates."""
    dims = Dims(*dims)
    e = frozenset(edge)
    g = build_graph(dims, [e])
    if classify_edge(e) != EdgeClass.ENTANGLED:
        raise BadParamsError("single-edge family needs both coordinates to differ")
    return g


def pe_matching_graph(dims: Dims, pi: Iterable[int]) -> Graph:
    """Two-row graph matching (1, j) to (2, pi_j) for a fixed-point-free pi."""
    dims = Dims(*dims)
    if dims.p != 2:
        raise BadParamsError(f"matching family needs p = 2, got p = {dims.p}")
    perm = tuple(pi)
    if sorted(perm) != list(range(1, dims.q + 1)):
        raise BadParamsError(f"pi must permute 1..{dims.q}, got {perm}")
    if any(perm[j - 1] == j for j in range(1, dims.q + 1)):
        raise BadParamsError("pi must not fix any column")
    edges = [frozenset({(1, j), (2, perm[j - 1])}) for j in range(1, dims.q + 1)]
    return build_graph(dims, edges)


def separable_edge_pool(dims: Dims) -> list[tuple[Vertex, Vertex]]:
    """All same-row and same-column edges, canonical and sorted."""
    dims = Dims(*dims)
    pool = []
    for i in range(1, dims.p + 1):
        for j in range(1, dims.q + 1):
            for t in range(j + 1, dims.q + 1):
                pool.append(((i, j), (i, t)))
    for j in range(1, dims.q + 1):
        for i in range(1, dims.p + 1):
            for s in range(i + 1, dims.p + 1):
                pool.append(((i, j), (s, j)))
    key = lambda pr: (linear_index(pr[0], dims), linear_index(pr[1], dims))
    return sorted(pool, key=key)


def entangled_edge_pool(dims: Dims) -> list[tuple[Vertex, Vertex]]:
    """All edges whose endpoints differ in both coordinates, canonical, sorted."""
    dims = Dims(*dims)
    pool = []
    for i in range(1, dims.p + 1):
        for s in range(i + 1, dims.p + 1):
            for j in range(1, dims.q + 1):
                for t in range(1, dims.q + 1):
                    if j != t:
                        pool.append(((i, j), (s, t)))
    key = lambda pr: (linear_index(pr[0], dims), linear_index(pr[1], dims))
    return sorted(pool, key=key)


def separable_pool_size(dims: Dims) -> int:
    dims = Dims(*dims)
    return dims.p * comb(dims.q, 2) + dims.q * comb(dims.p, 2)


def entangled_pool_size(dims: Dims) -> int:
    dims = Dims(*dims)
    return comb(dims.p, 2) * dims.q * (dims.q - 1)


def random_graph(
    dims: Dims, num_separable: int, num_entangled: int, seed: int
) -> Graph:
    """Uniform sample without replacement from the two edge pools."""
    dims = Dims(*dims)
    if num_separable < 0 or num_entangled < 0:
        raise BadParamsError("edge counts must be nonnegative")
    sep_pool = separable_edge_pool(dims)
    ent_pool = entangled_edge_pool(dims)
    if num_separable > len(sep_pool):
        raise BadParamsError(
            f"asked for {num_separable} separable edges, pool has {len(sep_pool)}"
        )
    if num_entangled > len(ent_pool):
        raise BadParamsError(
            f"asked for {num_entangled} entangled edges, pool has {len(ent_pool)}"
        )
    if num_separable + num_entangled == 0:
        raise EmptyEdgeSetError("graph needs at least one edge")
    rng = random.Random(seed)
    chosen = rng.sample(sep_pool, num_separable) + rng.sample(ent_pool, num_entangled)
    return build_graph(dims, [frozenset(e) for e in chosen])
