import random
import re
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphsep.graphs
import pool_reference
from graphsep.errors import (
    BadDimsError,
    BadParamsError,
    EmptyEdgeSetError,
    OnlyLoopsError,
    OutOfRangeError,
)
from graphsep.graphs import (
    Dims,
    EdgeClass,
    Graph,
    _entangled_count,
    _entangled_edges,
    _separable_count,
    _separable_edges,
    build_graph,
    checked_dims,
    classify_edge,
    complete_graph,
    density_matrix,
    entangled_edge_pool,
    laplacian,
    linear_index,
    pe_matching_graph,
    random_graph,
    separable_edge_pool,
    single_edge_graph,
    star_graph,
    tensor_product,
)
from graphsep.harness import SUITE_IDS, run_suite, suite_instance, trial_seed
from graphsep.report import check_grid_size
from graphsep.separability import entangled_edge_witness

GRIDS = [Dims(2, 2), Dims(2, 3), Dims(3, 2), Dims(3, 3), Dims(2, 4), Dims(4, 2)]


@pytest.mark.parametrize("dims", GRIDS)
def test_linear_index_bijection(dims):
    seen = set()
    for i in range(1, dims.p + 1):
        for j in range(1, dims.q + 1):
            seen.add(linear_index((i, j), dims))
    assert seen == set(range(1, dims.n + 1))


def test_classify_edge():
    assert classify_edge(frozenset({(1, 1)})) == EdgeClass.LOOP
    assert classify_edge(frozenset({(1, 1), (1, 2)})) == EdgeClass.SAME_ROW
    assert classify_edge(frozenset({(1, 1), (2, 1)})) == EdgeClass.SAME_COLUMN
    assert classify_edge(frozenset({(1, 1), (2, 2)})) == EdgeClass.ENTANGLED
    with pytest.raises(OutOfRangeError):
        classify_edge(frozenset({(1, 1), (3, 2)}), Dims(2, 2))
    # the vertices Graph refuses: a bool, a float or a str is not a coordinate
    for bad in ((True, 1), (1.0, 1), ("1", 1), (1, 1, 1)):
        for dims in (Dims(2, 2), None):
            with pytest.raises(BadParamsError, match="pair of ints"):
                classify_edge(frozenset({bad, (2, 2)}), dims)
    for edge in (frozenset(), frozenset({(1, 1), (1, 2), (2, 1)})):
        with pytest.raises(BadParamsError, match=f"got {len(edge)}"):
            classify_edge(edge)
    # dims, when given, go through checked_dims before the edge is read:
    # (2.0, 2) was once taken, (True, True) named a "TruexTrue grid", and
    # "ab" and (3,) raised a bare TypeError and ValueError
    for dims in ((2.0, 2), (True, True), "ab", (3,), (0, 3)):
        with pytest.raises(BadDimsError):
            classify_edge(frozenset({(1, 1), (2, 2)}), dims)
    assert classify_edge([(1, 1), (2, 2)], (2, 2)) == EdgeClass.ENTANGLED


class SelfOrderingInt(int):
    # an int to isinstance, but never below anything
    __lt__ = lambda self, other: False  # noqa: E731


# (error, message, dims, edges)
INVALID_GRAPHS = [
    (BadDimsError, "grid dims must be positive, got 0x2", Dims(0, 2),
     [frozenset({(1, 1), (1, 2)})]),
    # dims must be a pair of ints, and a bool or another int subclass is not one
    (BadDimsError, "grid dims must be integers, got 2.0 and 3", (2.0, 3),
     [frozenset({(1, 1), (2, 2)})]),
    (BadDimsError, "grid dims must be integers, got 2 and 3.0", (2, 3.0),
     [frozenset({(1, 1), (2, 2)})]),
    (BadDimsError, "grid dims must be integers, got True and 3", (True, 3),
     [frozenset({(1, 1), (1, 2)})]),
    (BadDimsError, "grid dims must be integers, got 2 and '3'", (2, "3"),
     [frozenset({(1, 1), (2, 2)})]),
    # (-1, -2) of these once passed, and complete_graph built an edge at (0, 0)
    (BadDimsError, "grid dims must be integers, got -1 and -2",
     (SelfOrderingInt(-1), SelfOrderingInt(-2)), [frozenset({(1, 1), (2, 2)})]),
    (BadDimsError, "grid dims must be integers, got 2 and 2", (2, SelfOrderingInt(2)),
     [frozenset({(1, 1), (2, 2)})]),
    (BadDimsError, "grid dims must be a pair, got (2,)", (2,), [frozenset({(1, 1), (2, 1)})]),
    (BadDimsError, "grid dims must be a pair, got (2, 3, 4)", (2, 3, 4),
     [frozenset({(1, 1), (2, 2)})]),
    (BadDimsError, "grid dims must be a pair, got 6", 6, [frozenset({(1, 1), (2, 2)})]),
    (BadDimsError, "grid dims must be a pair, got None", None, [frozenset({(1, 1), (2, 2)})]),
    (EmptyEdgeSetError, "graph needs at least one edge", Dims(2, 2), []),
    (OutOfRangeError, "vertex (3,1) outside 2x2 grid", Dims(2, 2), [frozenset({(1, 1), (3, 1)})]),
    (OutOfRangeError, "vertex (3,3) outside 2x2 grid", Dims(2, 2), [frozenset({(1, 1), (3, 3)})]),
    (OnlyLoopsError, "graph has loops only; no matrix is defined", Dims(2, 2),
     [frozenset({(1, 1)}), frozenset({(2, 2)})]),
    (BadParamsError, "edge needs one or two vertices, got 3", Dims(2, 2),
     [frozenset({(1, 1), (1, 2), (2, 1)})]),
    (BadParamsError, "edge needs one or two vertices, got 0", Dims(2, 2),
     [frozenset({(1, 1), (2, 2)}), frozenset()]),
    # a vertex is a pair of ints, and a bool, a float or an int subclass is not one
    (BadParamsError, "vertex must be a pair of ints, got (True, 1)", Dims(2, 2),
     [frozenset({(True, 1), (2, 2)})]),
    (BadParamsError, "vertex must be a pair of ints, got (1.0, 1)", Dims(2, 2),
     [frozenset({(1.0, 1), (2, 2)})]),
    (BadParamsError, "vertex must be a pair of ints, got (1, 1, 1)", Dims(2, 2),
     [frozenset({(1, 1, 1), (2, 2)})]),
    (BadParamsError, "vertex must be a pair of ints, got (2, 'a')", Dims(2, 2),
     [frozenset({(1, 1), (2, "a")})]),
    (BadParamsError, "vertex must be a pair of ints, got (1, 2)", Dims(2, 2),
     [frozenset({(1, SelfOrderingInt(2)), (2, 2)})]),
    # an edge is a collection of vertices, and an int or None is not one
    (BadParamsError, "edges must be sets of vertices: 'int' object is not iterable",
     Dims(2, 2), [5]),
    (BadParamsError, "edges must be sets of vertices: 'NoneType' object is not iterable",
     Dims(2, 2), [frozenset({(1, 1), (2, 2)}), None]),
    # two faults each, which pin the order of the checks: dims before
    # edges, conversion before size, size before vertex, vertex type before
    # range, range before only-loops
    (BadDimsError, "grid dims must be positive, got 0x2", (0, 2), []),
    (BadDimsError, "grid dims must be positive, got 0x2", (0, 2), [5]),
    (BadParamsError, "edges must be sets of vertices: 'int' object is not iterable",
     Dims(2, 2), [frozenset({(1, 1), (1, 2), (2, 1)}), 5]),
    (BadParamsError, "edge needs one or two vertices, got 3", Dims(2, 2),
     [frozenset({(1.0, 1), (2, 2)}), frozenset({(1, 1), (1, 2), (2, 1)})]),
    (BadParamsError, "vertex must be a pair of ints, got (True, 1)", Dims(2, 2),
     [frozenset({(3, 3), (1, 1)}), frozenset({(True, 1), (2, 2)})]),
    (OutOfRangeError, "vertex (3,3) outside 2x2 grid", Dims(2, 2), [frozenset({(3, 3)})]),
]


def test_build_graph_validation():
    # build_graph is Graph: one constructor, whatever collection holds the
    # edges, with its checks in one order and one message each
    assert build_graph is Graph
    for error, message, dims, edges in INVALID_GRAPHS:
        for given in (edges, frozenset(edges)):
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                Graph(dims, given)
    # a list edge [(1, 1), (1, 1)] is a set of one vertex: a loop
    edges = [[(1, 1), (1, 1)], [(1, 1), (2, 2)]]
    g = Graph(Dims(2, 2), edges)
    assert (g.loops, g.sorted_edges, g.degree_sum) == (((1, 1),), (((1, 1), (2, 2)),), 2)
    assert g == Graph(Dims(2, 2), frozenset(map(frozenset, edges)))
    # an edge that is not a collection: BadParamsError, not a bare TypeError
    for make in (lambda: build_graph(Dims(2, 2), [5]), lambda: build_graph(Dims(2, 2), 5),
                 lambda: classify_edge(5), lambda: Graph(Dims(2, 2), frozenset({5}))):
        with pytest.raises(BadParamsError):
            make()


def test_equal_graphs_compare_and_hash_equal():
    # a graph compares, hashes and prints by what it holds: dims,
    # sorted_edges and loops, however its edges were given
    e = frozenset({(1, 1), (2, 2)})
    made = [Graph(Dims(2, 2), frozenset({e})), Graph((2, 2), [e]),
            build_graph((2, 2), [e]), build_graph(Dims(2, 2), {e}),
            Graph(Dims(2, 2), [[(2, 2), (1, 1)], [(1, 1), (2, 2)]])]
    held = (Dims(2, 2), (((1, 1), (2, 2)),), ())
    for g in made:
        assert (g.dims, g.sorted_edges, g.loops) == held
        assert g == made[0] and hash(g) == hash(held)
        assert repr(g) == "Graph(dims=Dims(p=2, q=2), sorted_edges=(((1, 1), (2, 2)),), loops=())"
    assert made[0] != build_graph(Dims(2, 2), [{(1, 1), (2, 1)}])
    with_loop = Graph(Dims(2, 2), [e, [(1, 2)]])
    assert with_loop != made[0] and hash(with_loop) == hash((*held[:2], ((1, 2),)))


def test_classify_edge_takes_any_collection():
    assert classify_edge([(1, 1), (1, 1)]) == EdgeClass.LOOP
    assert classify_edge([(1, 1), (2, 2)], Dims(2, 2)) == EdgeClass.ENTANGLED


def test_random_graph_refuses_counts_and_seeds_that_are_not_ints():
    # a bool is an int, but neither a count nor a seed; a float is neither
    dims = Dims(2, 2)
    for args in ((True, 1, 0), (1, False, 0), (1.0, 1, 0), (1, 1.0, 0), (1, 1, 1.5),
                 (1, 1, True), (1, 1, "0"), (1, 1, None)):
        with pytest.raises(BadParamsError, match="must be ints"):
            random_graph(dims, *args)
    # no sign rule for the seed
    assert random_graph(dims, 1, 1, -1) == random_graph(dims, 1, 1, -1)


@pytest.mark.parametrize(
    "make",
    [
        complete_graph,
        star_graph,
        separable_edge_pool,
        entangled_edge_pool,
        lambda dims: random_graph(dims, 1, 0, 0),
        lambda dims: single_edge_graph(dims, {(1, 1), (2, 2)}),
        lambda dims: pe_matching_graph(dims, (2, 1)),
    ],
    ids=["complete", "star", "separable-pool", "entangled-pool", "random", "single-edge",
         "pe-matching"],
)
def test_generators_refuse_dims_that_are_not_ints(make):
    # refused as bad dims before any range or comb sees a float
    for dims in ((2.0, 2), (2, 2.0), (2, True), (2,),
                 (SelfOrderingInt(-1), SelfOrderingInt(-2))):
        with pytest.raises(BadDimsError):
            make(dims)


def test_build_graph_dedups():
    g = build_graph(
        Dims(2, 2), [frozenset({(1, 1), (2, 2)}), frozenset({(2, 2), (1, 1)})]
    )
    assert (g.sorted_edges, g.loops) == ((((1, 1), (2, 2)),), ())


def test_single_edge_matrices():
    g = single_edge_graph(Dims(2, 2), {(1, 1), (2, 2)})
    assert laplacian(g).rows == (
        (1, 0, 0, -1),
        (0, 0, 0, 0),
        (0, 0, 0, 0),
        (-1, 0, 0, 1),
    )
    assert density_matrix(g).rows[0] == (Fraction(1, 2), 0, 0, Fraction(-1, 2))
    assert g.degree_sum == 2


def test_single_edge_rejects_separable():
    with pytest.raises(BadParamsError):
        single_edge_graph(Dims(2, 2), {(1, 1), (1, 2)})


def test_loops_do_not_touch_matrices():
    base = build_graph(Dims(2, 2), [frozenset({(1, 1), (2, 2)})])
    with_loop = build_graph(
        Dims(2, 2), [frozenset({(1, 1), (2, 2)}), frozenset({(2, 1)})]
    )
    assert laplacian(base) == laplacian(with_loop)
    assert with_loop.loops == ((2, 1),)
    assert with_loop.loops is with_loop.loops  # computed once, like sorted_edges
    assert with_loop.degree_sum == base.degree_sum
    assert len(with_loop.sorted_edges) == 1


def test_star_and_complete_shapes():
    k = complete_graph(Dims(2, 3))
    assert len(k.sorted_edges) == comb(6, 2)
    s = star_graph(Dims(2, 3))
    assert len(s.sorted_edges) == 5
    assert all(u == (1, 1) for u, v in s.sorted_edges) and s.loops == ()


def random_graph_params():
    return st.tuples(
        st.sampled_from(GRIDS),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=2**32),
    )


@settings(max_examples=60)
@given(random_graph_params())
def test_density_is_trace_one_mixture(params):
    dims, ns, ne, seed = params
    ns = min(ns, len(separable_edge_pool(dims)))
    ne = min(ne, len(entangled_edge_pool(dims)))
    if ns + ne == 0:
        ns = 1
    g = random_graph(dims, ns, ne, seed)
    sigma = density_matrix(g)
    assert sum(sigma.rows[i][i] for i in range(g.n)) == 1
    # density equals the uniform mixture of its edges' single-edge densities
    m = len(g.sorted_edges)
    rows = [[Fraction(0)] * g.n for _ in range(g.n)]
    for u, v in g.sorted_edges:
        r, c = linear_index(u, g.dims) - 1, linear_index(v, g.dims) - 1
        rows[r][r] += Fraction(1, 2 * m)
        rows[c][c] += Fraction(1, 2 * m)
        rows[r][c] -= Fraction(1, 2 * m)
        rows[c][r] -= Fraction(1, 2 * m)
    assert sigma.rows == tuple(tuple(row) for row in rows)


def test_tensor_product_known_small_case():
    k2 = complete_graph(Dims(2, 1))
    t = tensor_product(k2, k2)
    assert t.dims == Dims(2, 2)
    assert t.sorted_edges == (((1, 1), (2, 2)), ((1, 2), (2, 1)))


def adjacency(g):
    """The graph's 0/1 adjacency matrix in numpy, rows in linear_index order."""
    a = np.zeros((g.n, g.n), dtype=int)
    for u, v in g.sorted_edges:
        r, c = linear_index(u, g.dims) - 1, linear_index(v, g.dims) - 1
        a[r, c] = a[c, r] = 1
    return a


@pytest.mark.parametrize(
    "d1,d2", [(Dims(2, 1), Dims(2, 1)), (Dims(2, 1), Dims(3, 1)), (Dims(3, 1), Dims(3, 1))]
)
def test_tensor_product_matches_kronecker(d1, d2):
    g, h = complete_graph(d1), complete_graph(d2)
    t = tensor_product(g, h)
    assert np.array_equal(adjacency(t), np.kron(adjacency(g), adjacency(h)))
    assert t.dims == Dims(g.n, h.n)


def test_tensor_product_edges_all_entangled():
    g = build_graph(Dims(3, 1), [frozenset({(1, 1), (2, 1)}), frozenset({(2, 1), (3, 1)})])
    t = tensor_product(g, complete_graph(Dims(2, 1)))
    assert all(
        classify_edge(frozenset(pr)) == EdgeClass.ENTANGLED for pr in t.sorted_edges
    )


def test_pe_matching_graph_validation():
    g = pe_matching_graph(Dims(2, 3), (2, 3, 1))
    assert len(g.sorted_edges) == 3
    with pytest.raises(BadParamsError):
        pe_matching_graph(Dims(3, 3), (2, 3, 1))
    with pytest.raises(BadParamsError):
        pe_matching_graph(Dims(2, 3), (2, 2, 1))
    with pytest.raises(BadParamsError):
        pe_matching_graph(Dims(2, 3), (1, 3, 2))
    # True and 2.0 equal 1 and 2, but are no column; the key path would
    # read True as 1 and build float keys from 2.0
    for pi in ((2, True), (2.0, 1)):
        with pytest.raises(BadParamsError, match=r"pi entries must be ints, got \("):
            pe_matching_graph(Dims(2, 2), pi)
    with pytest.raises(BadParamsError, match="pi must not fix any column"):
        pe_matching_graph(Dims(2, 2), (True, 2))


@pytest.mark.parametrize("dims", GRIDS)
def test_pool_sizes_and_disjointness(dims):
    sep = separable_edge_pool(dims)
    ent = entangled_edge_pool(dims)
    assert len(sep) == dims.p * comb(dims.q, 2) + dims.q * comb(dims.p, 2)
    assert len(ent) == comb(dims.p, 2) * dims.q * (dims.q - 1)
    assert not (set(sep) & set(ent))
    assert len(sep) + len(ent) == comb(dims.n, 2)
    assert sep == sorted(
        sep, key=lambda pr: (linear_index(pr[0], dims), linear_index(pr[1], dims))
    )
    assert all(
        classify_edge(frozenset(pr)) in (EdgeClass.SAME_ROW, EdgeClass.SAME_COLUMN)
        for pr in sep
    )
    assert all(classify_edge(frozenset(pr)) == EdgeClass.ENTANGLED for pr in ent)


@pytest.mark.parametrize(
    "dims",
    [Dims(p, q) for p in range(1, 7) for q in range(1, 7)] + [Dims(2, 64), Dims(64, 2)],
    ids=str,
)
def test_pools_come_out_in_sorted_order(dims):
    # the unrankers give each pool already sorted, so neither calls sorted()
    assert separable_edge_pool(dims) == pool_reference.separable_pool(dims)
    assert entangled_edge_pool(dims) == pool_reference.entangled_pool(dims)


ORDER_GRIDS = [Dims(1, 5), Dims(1, 64), Dims(5, 1), Dims(64, 1), Dims(2, 64),
               Dims(64, 2), Dims(30, 30), Dims(3, 7), Dims(7, 3)]


@st.composite
def graphs_with_loops(draw):
    """A graph with loops, duplicates and reversed pairs, and the edges it
    was built from."""
    p, q = dims = draw(st.sampled_from(ORDER_GRIDS))
    vertex = st.tuples(st.integers(1, p), st.integers(1, q))
    ends = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=40))
    u, v = ends[0]
    if u == v:  # one non-loop edge keeps the graph legal
        v = (u[0] % p + 1, u[1]) if p > 1 else (u[0], u[1] % q + 1)
    edges = [{u, v}] + [set(e) for e in ends[1:]]
    return build_graph(dims, edges), edges


@settings(max_examples=200, deadline=None)
@given(graphs_with_loops())
def test_sorted_edges_is_tuple_order(built):
    # the integer key sorts exactly as tuple order on the oriented pairs;
    # each field is held to the input, whatever collection holds the edges
    g, edges = built
    pairs = {(min(e), max(e)) for e in edges if len(e) == 2}
    for h in (g, Graph(g.dims, frozenset(map(frozenset, edges)))):
        assert h.sorted_edges == tuple(sorted(pairs))
        assert h.loops == tuple(sorted({v for e in edges if len(e) == 1 for v in e}))
        assert h.entangled_edges == tuple(
            (u, v) for u, v in sorted(pairs) if u[0] != v[0] and u[1] != v[1]
        )


def test_random_graph_determinism_and_counts():
    g1 = random_graph(Dims(3, 3), 4, 3, 123)
    g2 = random_graph(Dims(3, 3), 4, 3, 123)
    g3 = random_graph(Dims(3, 3), 4, 3, 124)
    assert g1 == g2
    assert g1 != g3
    classes = [classify_edge(e) for e in g1.sorted_edges]
    assert sum(c == EdgeClass.ENTANGLED for c in classes) == 3
    assert (len(g1.sorted_edges), g1.loops) == (7, ())


def test_random_graph_validation():
    with pytest.raises(BadParamsError):
        random_graph(Dims(2, 2), -1, 1, 0)
    with pytest.raises(BadParamsError):
        random_graph(Dims(2, 2), 100, 0, 0)
    with pytest.raises(BadParamsError):
        random_graph(Dims(2, 2), 0, 100, 0)
    with pytest.raises(EmptyEdgeSetError):
        random_graph(Dims(2, 2), 0, 0, 0)


def test_pool_counts_and_unranking_match_the_listed_pools():
    grids = [Dims(p, q) for p in range(1, 8) for q in range(1, 8)] + [Dims(1, 12), Dims(12, 1)]
    for dims in grids:
        sep = pool_reference.separable_pool(dims)
        ent = pool_reference.entangled_pool(dims)
        assert _separable_count(dims) == len(sep)
        assert _entangled_count(dims) == len(ent)
        assert _separable_edges(dims, range(len(sep))) == sep
        assert _entangled_edges(dims, range(len(ent))) == ent


def test_entangled_edges_are_drawn_by_index(monkeypatch):
    # the k-th pair of each sorted pool, by arithmetic, on the largest
    # grids; sampling its indices draws what sampling the listed pool drew
    pools = {d: pool_reference.entangled_pool(d)
             for d in (Dims(2, 512), Dims(512, 2), Dims(32, 32))}
    for dims, ent in pools.items():
        for pool, count, unranked in (
            (pool_reference.separable_pool(dims), _separable_count, _separable_edges),
            (ent, _entangled_count, _entangled_edges),
        ):
            n = len(pool)
            assert count(dims) == n
            ks = (0, 1, n // 3, n // 2, n - 1)
            assert unranked(dims, ks) == [pool[k] for k in ks]
    pools[Dims(5, 4)] = pool_reference.entangled_pool(Dims(5, 4))
    cases = ((Dims(32, 32), 0, 1, 0), (Dims(2, 512), 3, 50, 7), (Dims(5, 4), 0, 120, 2))
    expected = []
    for dims, ns, ne, seed in cases:
        rng = random.Random(seed)
        chosen = rng.sample(pool_reference.separable_pool(dims), ns)
        chosen += rng.sample(pools[dims], ne)
        expected.append(build_graph(dims, [frozenset(e) for e in chosen]))

    def refuse(dims):
        raise AssertionError("pool listed")

    for name in ("separable_edge_pool", "entangled_edge_pool"):
        monkeypatch.setattr(graphsep.graphs, name, refuse)
    assert [random_graph(*case) for case in cases] == expected


def _same_graph(g, ref):
    assert g == ref and hash(g) == hash(ref) and repr(g) == repr(ref)
    for name in ("sorted_edges", "loops", "entangled_edges", "degree_sum"):
        assert getattr(g, name) == getattr(ref, name), name


def _tensor_by_frozensets(g, h):
    edges = set()
    for u1, v1 in g.sorted_edges:
        a, b = linear_index(u1, g.dims), linear_index(v1, g.dims)
        for u2, v2 in h.sorted_edges:
            x, y = linear_index(u2, h.dims), linear_index(v2, h.dims)
            edges |= {tuple(sorted(e)) for e in ({(a, x), (b, y)}, {(a, y), (b, x)})}
    return build_graph(Dims(g.n, h.n), sorted(edges))


def test_graphs_built_by_key_equal_build_graph():
    # every graph graphsep generates is built by key, past build_graph's
    # checks; it must come out as build_graph makes it from the same edges
    grids = [Dims(p, q) for p in range(1, 7) for q in range(1, 7) if p * q > 1]
    for dims in grids + [Dims(2, 12), Dims(12, 2)]:
        verts = [(i, j) for i in range(1, dims.p + 1) for j in range(1, dims.q + 1)]
        _same_graph(complete_graph(dims), build_graph(dims, combinations(verts, 2)))
        _same_graph(star_graph(dims), build_graph(dims, [{(1, 1), v} for v in verts[1:]]))
    rng = random.Random(11)
    for q in range(2, 9):
        pi = list(range(1, q + 1))
        while any(x == j for j, x in enumerate(pi, 1)):
            rng.shuffle(pi)
        matching = [{(1, j), (2, x)} for j, x in enumerate(pi, 1)]
        _same_graph(pe_matching_graph(Dims(2, q), pi), build_graph(Dims(2, q), matching))
    for _ in range(30):
        g, h = (random_graph(Dims(m, 1), rng.randint(1, comb(m, 2)), 0, rng.getrandbits(32))
                for m in (rng.randint(2, 5), rng.randint(2, 5)))
        _same_graph(tensor_product(g, h), _tensor_by_frozensets(g, h))
    g = random_graph(Dims(2, 3), 2, 3, 5)
    _same_graph(tensor_product(g, g), _tensor_by_frozensets(g, g))
    for seed in range(60):
        dims = Dims(rng.randint(1, 6), rng.randint(1, 6))
        ns = rng.randint(0, _separable_count(dims))
        ne = rng.randint(0, _entangled_count(dims))
        if ns + ne:
            draw = random.Random(seed)
            chosen = draw.sample(pool_reference.separable_pool(dims), ns)
            chosen += draw.sample(pool_reference.entangled_pool(dims), ne)
            _same_graph(random_graph(dims, ns, ne, seed), build_graph(dims, sorted(chosen)))
    for suite in SUITE_IDS:
        for i in range(20):
            g = suite_instance(suite, Dims(2, 5) if suite == 7 else Dims(4, 4), trial_seed(3, i))
            _same_graph(g, build_graph(g.dims, g.sorted_edges))


def test_graphs_built_by_key_refuse_as_before():
    refusals = [
        (lambda: complete_graph(Dims(1, 1)), EmptyEdgeSetError, "graph needs at least one edge"),
        (lambda: star_graph(Dims(1, 1)), EmptyEdgeSetError, "graph needs at least one edge"),
        (lambda: random_graph(Dims(1, 1), 0, 0, 0), EmptyEdgeSetError,
         "graph needs at least one edge"),
        (lambda: complete_graph((0, 3)), BadDimsError, "grid dims must be positive, got 0x3"),
        (lambda: star_graph((2, -1)), BadDimsError, "grid dims must be positive, got 2x-1"),
        (lambda: random_graph(Dims(2, 2), 5, 0, 0), BadParamsError,
         "asked for 5 separable edges, pool has 4"),
        (lambda: random_graph(Dims(2, 2), 0, 3, 0), BadParamsError,
         "asked for 3 entangled edges, pool has 2"),
        (lambda: random_graph(Dims(2, 2), -1, 1, 0), BadParamsError,
         "edge counts must be nonnegative"),
        (lambda: random_graph(Dims(2, 2), True, 1, 0), BadParamsError,
         "edge counts and seed must be ints, got True, 1 and 0"),
        # a pi that cannot be listed, or whose entries cannot be sorted,
        # once raised a bare TypeError
        (lambda: pe_matching_graph(Dims(2, 3), 5), BadParamsError, "pi must permute 1..3, got 5"),
        (lambda: pe_matching_graph(Dims(2, 2), (2, "a")), BadParamsError,
         "pi must permute 1..2, got (2, 'a')"),
    ]
    for call, error, message in refusals:
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()
    with pytest.raises(EmptyEdgeSetError, match="^graph needs at least one edge$"):
        build_graph(Dims(1, 1), [])


@pytest.mark.parametrize("dims", [(0, 3), (3, 0), (-1, -2)])
def test_every_dims_entry_point_refuses_a_dim_below_1(dims):
    # one rule, in checked_dims: the pools once returned [] here, and
    # random_graph and entangled_edge_witness raised other errors
    entry_points = [
        lambda: checked_dims(dims),
        lambda: classify_edge({(1, 1), (1, 2)}, dims),
        lambda: Graph(dims, frozenset({frozenset({(1, 1), (1, 2)})})),
        lambda: build_graph(dims, [{(1, 1), (1, 2)}]),
        lambda: complete_graph(dims),
        lambda: star_graph(dims),
        lambda: single_edge_graph(dims, {(1, 1), (2, 2)}),
        lambda: pe_matching_graph(dims, (2, 1)),
        lambda: separable_edge_pool(dims),
        lambda: entangled_edge_pool(dims),
        lambda: random_graph(dims, 1, 1, 0),
        lambda: entangled_edge_witness(dims, {(1, 1), (2, 2)}),
        lambda: check_grid_size(dims, "reports stop"),
        *(lambda suite=suite: suite_instance(suite, dims, 0) for suite in SUITE_IDS),
        *(lambda suite=suite: run_suite(suite, dims, 1, 0) for suite in SUITE_IDS),
    ]
    for call in entry_points:
        with pytest.raises(BadDimsError, match="must be positive"):
            call()
