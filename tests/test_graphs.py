from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    adjacency_matrix,
    build_graph,
    canonical_edge,
    classify_edge,
    complete_graph,
    density_matrix,
    entangled_edge_pool,
    entangled_pool_size,
    laplacian,
    linear_index,
    pe_matching_graph,
    random_graph,
    separable_edge_pool,
    separable_pool_size,
    single_edge_graph,
    star_graph,
    tensor_product,
)

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


def test_canonical_edge_orders_by_linear_index():
    assert canonical_edge((2, 1), (1, 2), Dims(2, 2)) == ((1, 2), (2, 1))
    assert canonical_edge((1, 1), (2, 2), Dims(2, 2)) == ((1, 1), (2, 2))


def test_build_graph_validation():
    with pytest.raises(BadDimsError):
        build_graph(Dims(0, 2), [frozenset({(1, 1), (1, 2)})])
    with pytest.raises(EmptyEdgeSetError):
        build_graph(Dims(2, 2), [])
    with pytest.raises(OutOfRangeError):
        build_graph(Dims(2, 2), [frozenset({(1, 1), (3, 1)})])
    with pytest.raises(OnlyLoopsError):
        build_graph(Dims(2, 2), [frozenset({(1, 1)}), frozenset({(2, 2)})])
    with pytest.raises(BadParamsError):
        build_graph(Dims(2, 2), [frozenset({(1, 1), (1, 2), (2, 1)})])


def test_build_graph_dedups():
    g = build_graph(
        Dims(2, 2), [frozenset({(1, 1), (2, 2)}), frozenset({(2, 2), (1, 1)})]
    )
    assert len(g.edges) == 1


def test_single_edge_matrices():
    g = single_edge_graph(Dims(2, 2), {(1, 1), (2, 2)})
    assert laplacian(g).rows == (
        (1, 0, 0, -1),
        (0, 0, 0, 0),
        (0, 0, 0, 0),
        (-1, 0, 0, 1),
    )
    assert density_matrix(g).rows[0] == (Fraction(1, 2), 0, 0, Fraction(-1, 2))
    assert adjacency_matrix(g).rows[0] == (0, 0, 0, 1)
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
    assert with_loop.degree_sum == base.degree_sum
    assert len(with_loop.sorted_edges) == 1


def test_star_and_complete_shapes():
    k = complete_graph(Dims(2, 3))
    assert len(k.sorted_edges) == comb(6, 2)
    s = star_graph(Dims(2, 3))
    assert len(s.sorted_edges) == 5
    assert all((1, 1) in e for e in s.edges)


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
    ns = min(ns, separable_pool_size(dims))
    ne = min(ne, entangled_pool_size(dims))
    if ns + ne == 0:
        ns = 1
    g = random_graph(dims, ns, ne, seed)
    sigma = density_matrix(g)
    assert sigma.trace() == 1
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


@pytest.mark.parametrize(
    "d1,d2", [(Dims(2, 1), Dims(2, 1)), (Dims(2, 1), Dims(3, 1)), (Dims(3, 1), Dims(3, 1))]
)
def test_tensor_product_matches_kronecker(d1, d2):
    g, h = complete_graph(d1), complete_graph(d2)
    t = tensor_product(g, h)
    got = np.array(adjacency_matrix(t).to_floats())
    want = np.kron(
        np.array(adjacency_matrix(g).to_floats()),
        np.array(adjacency_matrix(h).to_floats()),
    )
    assert np.array_equal(got, want)
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


@pytest.mark.parametrize("dims", GRIDS)
def test_pool_sizes_and_disjointness(dims):
    sep = separable_edge_pool(dims)
    ent = entangled_edge_pool(dims)
    assert len(sep) == separable_pool_size(dims)
    assert len(ent) == entangled_pool_size(dims)
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


def test_random_graph_determinism_and_counts():
    g1 = random_graph(Dims(3, 3), 4, 3, 123)
    g2 = random_graph(Dims(3, 3), 4, 3, 123)
    g3 = random_graph(Dims(3, 3), 4, 3, 124)
    assert g1 == g2
    assert g1 != g3
    classes = [classify_edge(e) for e in g1.edges]
    assert sum(c == EdgeClass.ENTANGLED for c in classes) == 3
    assert len(g1.edges) == 7


def test_random_graph_validation():
    with pytest.raises(BadParamsError):
        random_graph(Dims(2, 2), -1, 1, 0)
    with pytest.raises(BadParamsError):
        random_graph(Dims(2, 2), 100, 0, 0)
    with pytest.raises(BadParamsError):
        random_graph(Dims(2, 2), 0, 100, 0)
    with pytest.raises(EmptyEdgeSetError):
        random_graph(Dims(2, 2), 0, 0, 0)
