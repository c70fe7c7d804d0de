"""Graphs on a p-by-q vertex grid and their exact density matrices.

Vertices are pairs (i, j) with 1 <= i <= p and 1 <= j <= q, laid out
row-major so (i, j) has 1-based linear index (i - 1) * q + j; tuple order
on vertices is that linear order.  An edge is given as a collection of two
vertices, or of one vertex for a loop, and held as a sorted pair.  Loops
never enter the matrices; they are kept on the graph so callers can still
see them.
"""

from __future__ import annotations

import math
import random
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Collection, FrozenSet, Iterable, NamedTuple

from .errors import (
    BadDimsError,
    BadParamsError,
    EmptyEdgeSetError,
    OnlyLoopsError,
    OutOfRangeError,
)
from .matrix import SparseSymMatrix, SymMatrix, _Frozen

Vertex = tuple[int, int]
Edge = FrozenSet[Vertex]


class Dims(NamedTuple):
    p: int
    q: int

    @property
    def n(self) -> int:
        return self.p * self.q


def checked_dims(dims) -> Dims:
    """dims as Dims when it is a pair of positive ints; BadDimsError
    otherwise, for the type before the sign.  A bool or another int
    subclass, which may order itself, is not a dim."""
    try:
        p, q = dims
    except (TypeError, ValueError):
        raise BadDimsError(f"grid dims must be a pair, got {dims!r}") from None
    if type(p) is not int or type(q) is not int:
        raise BadDimsError(f"grid dims must be integers, got {p!r} and {q!r}")
    if p < 1 or q < 1:
        raise BadDimsError(f"grid dims must be positive, got {p}x{q}")
    return Dims(p, q)


def linear_index(v: Vertex, dims: Dims) -> int:
    """1-based row-major position of (i, j)."""
    i, j = v
    return (i - 1) * dims.q + j


class EdgeClass(Enum):
    SAME_ROW = "separable-same-row"
    SAME_COLUMN = "separable-same-column"
    ENTANGLED = "entangled"
    LOOP = "loop"


def _check_vertices(vertices, dims: Dims | None) -> None:
    """Raise BadParamsError unless every vertex is a 2-tuple of ints (a bool
    is an int, but not a coordinate), then, when dims is given,
    OutOfRangeError unless every vertex lies on the grid."""
    for v in vertices:
        if not (type(v) is tuple and len(v) == 2 and type(v[0]) is type(v[1]) is int):
            raise BadParamsError(f"vertex must be a pair of ints, got {v!r}")
    if dims is not None:
        p, q = dims
        for (i, j) in vertices:
            if not (1 <= i <= p and 1 <= j <= q):
                raise OutOfRangeError(f"vertex ({i},{j}) outside {p}x{q} grid")


def checked_edge(edge) -> Edge:
    """edge as a frozenset of its vertices; BadParamsError when it is not a
    collection of hashable vertices."""
    try:
        return frozenset(edge)
    except TypeError:
        raise BadParamsError(f"edge must be a set of vertices, got {edge!r}") from None


def classify_edge(edge: Edge | Iterable[Vertex], dims: Dims | None = None) -> EdgeClass:
    """Loop, same-row, same-column, or entangled (both coordinates differ).
    dims, when given, must pass checked_dims, which runs before any check."""
    dims = None if dims is None else checked_dims(dims)
    edge = checked_edge(edge)
    if not 1 <= len(edge) <= 2:
        raise BadParamsError(f"edge needs one or two vertices, got {len(edge)}")
    _check_vertices(edge, dims)
    if len(edge) == 1:
        return EdgeClass.LOOP
    (i, j), (s, t) = edge  # both tests are symmetric in the endpoints
    if i == s:
        return EdgeClass.SAME_ROW
    if j == t:
        return EdgeClass.SAME_COLUMN
    return EdgeClass.ENTANGLED


class Graph(_Frozen):
    """A graph as its dims, its non-loop edges as sorted pairs, sorted
    (sorted_edges), and its loops, sorted.  It compares, hashes and prints
    by those three fields, so equal graphs compare and hash equal however
    their edges were given."""

    _fields = ("dims", "sorted_edges", "loops")

    def __init__(self, dims: Dims, edges: Iterable[Edge | Iterable[Vertex]]):
        """Require dims that pass checked_dims, then edges that are
        collections of one or two grid vertices, each a 2-tuple of ints,
        and a non-loop edge; duplicate edges collapse.  Hold the graph by
        the key of each edge, as _from_keys does."""
        dims = checked_dims(dims)
        try:
            edges = frozenset(map(frozenset, edges))
        except TypeError as exc:
            raise BadParamsError(f"edges must be sets of vertices: {exc}") from None
        if bad := set(map(len, edges)) - {1, 2}:
            raise BadParamsError(f"edge needs one or two vertices, got {min(bad)}")
        # each vertex once; the keys below are int arithmetic
        _check_vertices(frozenset().union(*edges), dims)
        q, m = dims.q, _pair_base(dims)
        pair_keys, loop_keys = set(), []
        for e in edges:
            if len(e) == 2:
                (i, j), (s, t) = e
                a, b = i * q + j, s * q + t
                pair_keys.add(a * m + b if a < b else b * m + a)
            else:
                ((i, j),) = e
                loop_keys.append(i * q + j)
        self._hold(dims, pair_keys, loop_keys)

    @classmethod
    def _from_keys(cls, dims: Dims, pair_keys: set[int], loop_keys: Collection[int] = ()) -> Graph:
        """The graph from the vertex key a = i * q + j of each loop and the
        distinct pair key a * m + b of each other edge, a < b (see
        _pair_base).  Its caller vouches for every vertex: the parser checks
        every field, and graphsep's own builders make only grid vertices.
        So only the edge-count rules of __init__ run here."""
        g = object.__new__(cls)
        g._hold(dims, pair_keys, loop_keys)
        return g

    def _hold(self, dims: Dims, pair_keys: set[int], loop_keys: Collection[int]) -> None:
        """Set dims, then sorted_edges and loops from their keys once a
        non-loop edge is among them."""
        if not pair_keys:
            if not loop_keys:
                raise EmptyEdgeSetError("graph needs at least one edge")
            raise OnlyLoopsError("graph has loops only; no matrix is defined")
        q, m = dims.q, _pair_base(dims)
        object.__setattr__(self, "dims", dims)
        keys = sorted(pair_keys)
        heads, tails = [k // m for k in keys], [k % m for k in keys]
        # one tuple (i, j) per distinct vertex key a = i * q + j, 1 <= j <= q,
        # shared by every edge and loop at it
        vertex = {a: ((a - 1) // q, (a - 1) % q + 1) for a in {*heads, *tails, *loop_keys}}
        at = vertex.__getitem__
        # a list first: tuple() of an iterator grows its result by resizing,
        # and over a long run of parses that held about 1 MB more memory
        object.__setattr__(self, "sorted_edges", tuple(list(zip(map(at, heads), map(at, tails)))))
        object.__setattr__(self, "loops", tuple([vertex[a] for a in sorted(loop_keys)]))

    @property
    def n(self) -> int:
        return self.dims.n

    @cached_property
    def entangled_edges(self) -> tuple[tuple[Vertex, Vertex], ...]:
        """The sorted_edges whose endpoints differ in both coordinates."""
        pairs = self.sorted_edges
        return tuple([e for e in pairs if e[0][0] != e[1][0] and e[0][1] != e[1][1]])

    @property
    def degree_sum(self) -> int:
        return 2 * len(self.sorted_edges)


def _pair_base(dims: Dims) -> int:
    """m such that a pair of vertex keys a < b sorts by the one int a * m + b.
    Tuple order on vertices is the order of their keys a = i * q + j, since
    1 <= j <= q, and every key is below m."""
    return (dims.p + 1) * dims.q + 1


def _graph_of_pairs(dims: Dims, pairs: Iterable[tuple[Vertex, Vertex]]) -> Graph:
    """The graph whose edges are the given sorted pairs u < v of grid
    vertices, built by key: the caller vouches for the vertices."""
    q, m = dims.q, _pair_base(dims)
    return Graph._from_keys(dims, {(i * q + j) * m + s * q + t for (i, j), (s, t) in pairs})


build_graph = Graph


def laplacian_entries(g: Graph) -> dict:
    """Nonzero Laplacian entries keyed by 0-based (row, column); loops
    contribute nothing."""
    q = g.dims.q
    entries = {}  # a plain dict: Counter calls __missing__ for every new key
    get = entries.get
    for (i, j), (s, t) in g.sorted_edges:
        r, c = (i - 1) * q + j - 1, (s - 1) * q + t - 1  # 0-based linear_index
        entries[r, r] = get((r, r), 0) + 1
        entries[c, c] = get((c, c), 0) + 1
        entries[r, c] = entries[c, r] = -1
    return entries


def laplacian(g: Graph) -> SymMatrix:
    """Degree matrix minus adjacency matrix: laplacian_entries, dense."""
    return SparseSymMatrix(g.n, laplacian_entries(g)).dense()


def density_matrix(g: Graph) -> SymMatrix:
    """Laplacian scaled to unit trace."""
    return laplacian(g).scaled(Fraction(1, g.degree_sum))


def tensor_product(g: Graph, h: Graph) -> Graph:
    """Graph whose adjacency matrix is the Kronecker product of the factors'.

    Vertices of the result live on a g.n-by-h.n grid.  Each pair of non-loop
    edges {u1,v1}, {u2,v2} contributes the two cross edges
    {(u1,u2),(v1,v2)} and {(u1,v2),(v1,u2)} written in linear coordinates.
    Both join row a = linear_index(u1) to row b = linear_index(v1) > a, so
    each is a sorted pair, and no two pairs of edges share a cross edge.
    """
    out_dims = Dims(g.n, h.n)
    q, m = h.n, _pair_base(out_dims)
    rows = [(linear_index(u, g.dims) * q, linear_index(v, g.dims) * q) for u, v in g.sorted_edges]
    cols = [(linear_index(u, h.dims), linear_index(v, h.dims)) for u, v in h.sorted_edges]
    keys = {(a + x) * m + b + y for a, b in rows for x, y in cols}
    keys.update((a + y) * m + b + x for a, b in rows for x, y in cols)
    return Graph._from_keys(out_dims, keys)


def complete_graph(dims: Dims) -> Graph:
    """Every pair of distinct grid vertices joined: the vertex keys are
    q + 1 .. m - 1 (see _pair_base)."""
    dims = checked_dims(dims)
    m = _pair_base(dims)
    keys = range(dims.q + 1, m)
    return Graph._from_keys(dims, {a * m + b for a in keys for b in range(a + 1, m)})


def star_graph(dims: Dims) -> Graph:
    """Vertex (1, 1), whose key q + 1 is the least, joined to every other
    grid vertex."""
    dims = checked_dims(dims)
    hub, m = dims.q + 1, _pair_base(dims)
    return Graph._from_keys(dims, {hub * m + b for b in range(hub + 1, m)})


def single_edge_graph(dims: Dims, edge: Edge | Iterable[Vertex]) -> Graph:
    """One edge whose endpoints differ in both coordinates."""
    g = build_graph(dims, [edge])
    if not g.entangled_edges:
        raise BadParamsError("single-edge family needs both coordinates to differ")
    return g


def pe_matching_graph(dims: Dims, pi: Iterable[int]) -> Graph:
    """Two-row graph matching (1, j) to (2, pi_j) for a fixed-point-free pi."""
    dims = checked_dims(dims)
    if dims.p != 2:
        raise BadParamsError(f"matching family needs p = 2, got p = {dims.p}")
    q, m = dims.q, _pair_base(dims)
    try:  # pi need not be iterable, nor its entries comparable
        perm = tuple(pi)
        permutes = sorted(perm) == list(range(1, q + 1))
    except TypeError:
        raise BadParamsError(f"pi must permute 1..{q}, got {pi!r}") from None
    if not permutes:
        raise BadParamsError(f"pi must permute 1..{q}, got {perm}")
    if any(perm[j - 1] == j for j in range(1, q + 1)):
        raise BadParamsError("pi must not fix any column")
    # 2.0 and True equal ints, but are no column
    if any(type(x) is not int for x in perm):
        raise BadParamsError(f"pi entries must be ints, got {perm}")
    return Graph._from_keys(dims, {(q + j) * m + 2 * q + x for j, x in enumerate(perm, 1)})


def separable_edge_pool(dims: Dims) -> list[tuple[Vertex, Vertex]]:
    """All same-row and same-column edges as sorted pairs, sorted: every
    index of _separable_edges."""
    dims = checked_dims(dims)
    return _separable_edges(dims, range(_separable_count(dims)))


def entangled_edge_pool(dims: Dims) -> list[tuple[Vertex, Vertex]]:
    """All edges whose endpoints differ in both coordinates, as sorted pairs,
    sorted: every index of _entangled_edges."""
    dims = checked_dims(dims)
    return _entangled_edges(dims, range(_entangled_count(dims)))


def _separable_count(dims: Dims) -> int:
    """len(separable_edge_pool(dims)): p rows of q(q - 1)/2 pairs and q
    columns of p(p - 1)/2."""
    p, q = dims
    return p * q * (q - 1) // 2 + q * p * (p - 1) // 2


def _entangled_count(dims: Dims) -> int:
    """len(entangled_edge_pool(dims)): p(p - 1)/2 pairs of rows times q(q - 1)
    ordered pairs of columns."""
    p, q = dims
    return p * (p - 1) // 2 * q * (q - 1)


def _entangled_edges(dims: Dims, ks: Iterable[int]) -> list[tuple[Vertex, Vertex]]:
    """The k-th sorted entangled pair for each k in ks, 0 <= k <
    _entangled_count(dims), by arithmetic: vertex (i, j) heads r(q - 1)
    pairs, r = p - i, so row i and the rows below it head q(q - 1) T(r) of
    them, T(r) = r(r + 1)/2."""
    p, q = dims
    w, last = q * (q - 1), _entangled_count(dims) - 1
    edges = []
    for k in ks:
        e = last - k  # pairs after the k-th one
        r = (1 + math.isqrt(8 * (e // w) + 1)) // 2  # T(r - 1) <= e // w < T(r)
        j, rest = divmod(w * r * (r + 1) // 2 - 1 - e, r * (q - 1))
        s, t = divmod(rest, q - 1)
        edges.append(((p - r, j + 1), (p - r + 1 + s, t + 1 + (t >= j))))
    return edges


def _separable_edges(dims: Dims, ks: Iterable[int]) -> list[tuple[Vertex, Vertex]]:
    """The k-th sorted same-row or same-column pair for each k in ks,
    0 <= k < _separable_count(dims), by arithmetic.  Vertex (i, j) heads
    q - j same-row pairs, then d = p - i same-column ones, so the last u
    rows head q u(u + c)/2 pairs, c = q - 2, and the last w vertices of a
    row head w(w + 2d - 1)/2 of that row's.  The least u with
    u(u + c) > x >= 0, c >= -1, is the least with 2u + c > sqrt(4x + c^2)."""
    p, q = dims
    c, last = q - 2, _separable_count(dims) - 1
    edges = []
    for k in ks:
        e = last - k  # pairs after the k-th one
        u = (math.isqrt(4 * (2 * e // q) + c * c) - c) // 2 + 1
        e -= q * (u - 1) * (u - 1 + c) // 2  # ... in its row
        i, b = p - u + 1, 2 * u - 3  # b = 2d - 1
        w = (math.isqrt(8 * e + b * b) - b) // 2 + 1
        pos = (w - 1) * (w + b - 1) // 2 + w + u - 3 - e  # its place at its vertex
        j = q - w + 1
        if pos < w - 1:
            edges.append(((i, j), (i, j + 1 + pos)))
        else:
            edges.append(((i, j), (i + pos - w + 2, j)))
    return edges


def _draw_edges(
    rng: random.Random, dims: Dims, num_separable: int, num_entangled: int
) -> list[tuple[Vertex, Vertex]]:
    """num_separable edges sampled from the separable pool, then num_entangled
    from the entangled one, as sorted pairs.  Neither pool is listed, as
    sampling a pool's indices draws what sampling the list would."""
    seps = rng.sample(range(_separable_count(dims)), num_separable)
    ents = rng.sample(range(_entangled_count(dims)), num_entangled)
    return _separable_edges(dims, seps) + _entangled_edges(dims, ents)


def random_graph(
    dims: Dims, num_separable: int, num_entangled: int, seed: int
) -> Graph:
    """Uniform sample without replacement from the two edge pools."""
    dims = checked_dims(dims)
    # a bool is an int, but neither a count nor a seed; a seed may be negative
    if any(type(x) is not int for x in (num_separable, num_entangled, seed)):
        raise BadParamsError(
            f"edge counts and seed must be ints, got {num_separable!r},"
            f" {num_entangled!r} and {seed!r}"
        )
    if num_separable < 0 or num_entangled < 0:
        raise BadParamsError("edge counts must be nonnegative")
    for kind, num, count in (("separable", num_separable, _separable_count(dims)),
                             ("entangled", num_entangled, _entangled_count(dims))):
        if num > count:
            raise BadParamsError(f"asked for {num} {kind} edges, pool has {count}")
    if num_separable + num_entangled == 0:
        raise EmptyEdgeSetError("graph needs at least one edge")
    rng = random.Random(seed)
    return _graph_of_pairs(dims, _draw_edges(rng, dims, num_separable, num_entangled))
