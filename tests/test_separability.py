from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsep.errors import NotEntangledEdgeError, WrongDimsError
from graphsep.graphs import (
    Dims,
    build_graph,
    complete_graph,
    density_matrix,
    entangled_edge_pool,
    entangled_pool_size,
    laplacian,
    pe_matching_graph,
    random_graph,
    separable_edge_pool,
    separable_pool_size,
    single_edge_graph,
    star_graph,
)
from graphsep.separability import (
    BlockLineSumSymmetric,
    DegreeCriterionWitness,
    LowDimPPT,
    PerfectEntangledMatching,
    ProductDecomposition,
    QuadraticWitness,
    Status,
    Verdict,
    all_separable_certificate,
    block_lss_certificate,
    degree_criterion,
    entangled_edge_witness,
    pe_matching_certificate,
    ppt_test,
    quadratic_witness,
    reconstruct,
    revalidate,
    verdict,
    verdict_to_json_dict,
    witness_value,
)
from graphsep.matrix import is_psd_exact, partial_transpose
from graphsep.report import analyze

STAR_GRIDS = [Dims(2, 2), Dims(2, 3), Dims(3, 2), Dims(2, 4), Dims(4, 2), Dims(3, 3)]


def test_ppt_single_edge():
    g = single_edge_graph(Dims(2, 2), {(1, 1), (2, 2)})
    assert not ppt_test(g)
    res = analyze(g).ppt
    assert not res.holds
    assert res.min_eigenvalue_estimate == pytest.approx(-0.5, abs=1e-10)


def test_ppt_complete():
    g = complete_graph(Dims(2, 2))
    assert ppt_test(g)
    res = analyze(g).ppt
    assert res.holds
    assert res.min_eigenvalue_estimate == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("dims", STAR_GRIDS)
def test_degree_criterion_star(dims):
    res = degree_criterion(star_graph(dims))
    assert not res.holds
    assert res.violating_row == (dims.p - 1) * dims.q + 1
    assert res.row_sum == -(dims.q - 1)


def test_degree_criterion_holds_for_complete():
    res = degree_criterion(complete_graph(Dims(3, 3)))
    assert res.holds
    assert res.violating_row is None


def test_witness_vector_2x2():
    vec = entangled_edge_witness(Dims(2, 2), {(1, 1), (2, 2)})
    assert vec == (Fraction(3, 8), Fraction(1, 2), Fraction(1, 2), Fraction(3, 8))


def test_witness_vector_2x3_positions():
    vec = entangled_edge_witness(Dims(2, 3), {(1, 1), (2, 2)})
    assert vec[0] == Fraction(2, 5)
    assert vec[4] == Fraction(2, 5)
    assert all(x == Fraction(1, 2) for i, x in enumerate(vec) if i not in (0, 4))


def test_witness_rejects_separable_edge():
    with pytest.raises(NotEntangledEdgeError):
        entangled_edge_witness(Dims(2, 2), {(1, 1), (1, 2)})


def test_witness_values_known():
    e = frozenset({(1, 1), (2, 2)})
    lone = single_edge_graph(Dims(2, 2), e)
    assert quadratic_witness(lone, e).value == Fraction(-7, 32)

    sep = [frozenset(pr) for pr in separable_edge_pool(Dims(2, 2))]
    full = build_graph(Dims(2, 2), sep + [e])
    w = quadratic_witness(full, e)
    assert w.value == Fraction(-5, 32)
    assert w.degree_sum == 10

    # separable edge away from the marked endpoints contributes nothing
    g = build_graph(Dims(2, 3), [frozenset({(1, 2), (1, 3)})])
    vec = entangled_edge_witness(Dims(2, 3), {(1, 1), (2, 2)})
    assert witness_value(g, vec) == 0


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([Dims(2, 2), Dims(2, 3), Dims(3, 3), Dims(4, 2)]),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=2**31),
)
def test_one_entangled_edge_always_entangled(dims, ns, seed):
    ns = min(ns, separable_pool_size(dims))
    g = random_graph(dims, ns, 1, seed)
    v = verdict(g)
    assert v.status == Status.ENTANGLED
    assert revalidate(g, v)
    e = next(e for e in g.edges if len({x[0] for x in e}) == 2 and len({x[1] for x in e}) == 2)
    assert quadratic_witness(g, e).value < 0


def test_product_decomposition_two_edges():
    g = build_graph(
        Dims(2, 2), [frozenset({(1, 1), (1, 2)}), frozenset({(1, 1), (2, 1)})]
    )
    cert = all_separable_certificate(g)
    assert isinstance(cert, ProductDecomposition)
    assert len(cert.terms) == 2
    assert all(w == Fraction(1, 2) for w, _, _ in cert.terms)
    assert reconstruct(cert) == density_matrix(g)
    half = Fraction(1, 2)
    row_term = next(t for t in cert.terms if t[1].rows == ((1, 0), (0, 0)))
    assert row_term[2].rows == ((half, -half), (-half, half))


def test_product_decomposition_denied_with_entangled_edge():
    g = single_edge_graph(Dims(2, 2), {(1, 1), (2, 2)})
    assert all_separable_certificate(g) is None


def test_block_certificate():
    assert block_lss_certificate(complete_graph(Dims(2, 2))) is not None
    assert block_lss_certificate(complete_graph(Dims(3, 3))) is not None
    assert block_lss_certificate(star_graph(Dims(2, 2))) is None


def test_pe_certificate_full_matching():
    g = pe_matching_graph(Dims(2, 2), (2, 1))
    cert = pe_matching_certificate(g)
    assert isinstance(cert, PerfectEntangledMatching)
    assert cert.permutation == (2, 1)
    assert cert.separable_edge_count == 0


def test_pe_certificate_survives_separable_edges():
    base = pe_matching_graph(Dims(2, 3), (2, 3, 1))
    g = build_graph(
        Dims(2, 3), list(base.edges) + [frozenset({(1, 1), (1, 2)})]
    )
    cert = pe_matching_certificate(g)
    assert cert is not None
    assert cert.permutation == (2, 3, 1)
    assert cert.separable_edge_count == 1


def test_pe_certificate_denied_for_partial_matchings():
    # a lone entangled edge leaves unmatched columns, so no certificate
    g = build_graph(Dims(2, 3), [frozenset({(1, 1), (2, 2)})])
    assert pe_matching_certificate(g) is None
    assert verdict(g).status == Status.ENTANGLED

    # two-edge chain misses a column on each side
    g = build_graph(
        Dims(2, 3), [frozenset({(1, 1), (2, 2)}), frozenset({(1, 2), (2, 3)})]
    )
    assert pe_matching_certificate(g) is None
    assert verdict(g).status == Status.ENTANGLED

    # shared first-row vertex repeats a column
    g = build_graph(
        Dims(2, 3), [frozenset({(1, 1), (2, 2)}), frozenset({(1, 1), (2, 3)})]
    )
    assert pe_matching_certificate(g) is None


def test_pe_certificate_needs_two_rows():
    with pytest.raises(WrongDimsError):
        pe_matching_certificate(complete_graph(Dims(3, 2)))


def test_verdict_star_uses_degree_witness():
    v = verdict(star_graph(Dims(2, 2)))
    assert v.status == Status.ENTANGLED
    assert isinstance(v.witness, DegreeCriterionWitness)
    assert v.witness.row == 3
    assert v.witness.row_sum == -1
    assert v.certificate is None


def test_verdict_all_separable():
    g = build_graph(Dims(2, 2), [frozenset({(1, 1), (1, 2)})])
    v = verdict(g)
    assert v.status == Status.SEPARABLE
    assert isinstance(v.certificate, ProductDecomposition)


def test_verdict_complete_uses_blocks():
    v = verdict(complete_graph(Dims(3, 3)))
    assert v.status == Status.SEPARABLE
    assert isinstance(v.certificate, BlockLineSumSymmetric)


def test_verdict_matching_resolved_by_blocks_first():
    # full matchings are always block line-sum symmetric, so the block
    # certificate wins the race in the verdict order
    v = verdict(pe_matching_graph(Dims(2, 3), (2, 3, 1)))
    assert v.status == Status.SEPARABLE
    assert isinstance(v.certificate, BlockLineSumSymmetric)


LOW_DIM_CYCLE = [
    frozenset({(1, 1), (2, 2)}),
    frozenset({(2, 1), (3, 2)}),
    frozenset({(1, 2), (3, 1)}),
]


def test_verdict_low_dim_ppt_rule():
    # degree-preserving entangled cycle on 3x2: no other certificate applies
    g = build_graph(Dims(3, 2), LOW_DIM_CYCLE)
    assert ppt_test(g)
    assert block_lss_certificate(g) is None
    v = verdict(g)
    assert v.status == Status.SEPARABLE
    assert isinstance(v.certificate, LowDimPPT)
    assert revalidate(g, v)


UNKNOWN_EDGES = [
    frozenset({(1, 1), (2, 2)}),
    frozenset({(1, 2), (3, 1)}),
    frozenset({(2, 1), (3, 2)}),
]


def test_verdict_unknown_instance():
    g = build_graph(Dims(3, 3), UNKNOWN_EDGES)
    assert ppt_test(g)
    assert degree_criterion(g).holds
    assert block_lss_certificate(g) is None
    v = verdict(g)
    assert v.status == Status.UNKNOWN
    assert v.certificate is None and v.witness is None
    assert revalidate(g, v)


def test_revalidate_accepts_genuine_verdicts():
    cases = [
        single_edge_graph(Dims(2, 2), {(1, 1), (2, 2)}),
        complete_graph(Dims(2, 3)),
        build_graph(Dims(2, 2), [frozenset({(1, 1), (1, 2)})]),
        star_graph(Dims(3, 3)),
        pe_matching_graph(Dims(2, 4), (2, 1, 4, 3)),
    ]
    for g in cases:
        assert revalidate(g, verdict(g))


def test_revalidate_rejects_tampered_evidence():
    star = star_graph(Dims(2, 2))
    k4 = complete_graph(Dims(2, 2))

    # separable claim with the wrong certificate holder
    assert not revalidate(star, Verdict(Status.SEPARABLE, certificate=BlockLineSumSymmetric()))
    # entangled claim against a separable graph
    assert not revalidate(
        k4, Verdict(Status.ENTANGLED, witness=DegreeCriterionWitness(3, -1))
    )
    # degree witness pointing at a balanced row
    assert not revalidate(
        star, Verdict(Status.ENTANGLED, witness=DegreeCriterionWitness(4, -1))
    )
    # quadratic witness with a doctored value
    e = frozenset({(1, 1), (2, 2)})
    lone = single_edge_graph(Dims(2, 2), e)
    w = quadratic_witness(lone, e)
    assert revalidate(lone, Verdict(Status.ENTANGLED, witness=w))
    fake = QuadraticWitness(w.vector, Fraction(-1, 3), w.degree_sum)
    assert not revalidate(lone, Verdict(Status.ENTANGLED, witness=fake))
    # unknown claim for a decided graph
    assert not revalidate(star, Verdict(Status.UNKNOWN))
    # matching permutation that does not cover the edges
    g = pe_matching_graph(Dims(2, 3), (2, 3, 1))
    wrong = PerfectEntangledMatching((3, 1, 2), (), 0)
    assert not revalidate(g, Verdict(Status.SEPARABLE, certificate=wrong))


def test_verdict_json_shapes():
    d = verdict_to_json_dict(verdict(star_graph(Dims(2, 2))))
    assert d == {
        "verdict": "entangled",
        "certificate": None,
        "witness": {"kind": "degree-criterion", "row": 3, "row_sum": "-1"},
    }

    d = verdict_to_json_dict(verdict(complete_graph(Dims(2, 2))))
    assert d == {
        "verdict": "separable",
        "certificate": {"kind": "block-line-sum-symmetric"},
        "witness": None,
    }

    g = build_graph(Dims(2, 2), [frozenset({(1, 1), (1, 2)})])
    d = verdict_to_json_dict(verdict(g))
    assert d["certificate"]["kind"] == "all-edges-separable"
    assert d["certificate"]["terms"][0]["weight"] == "1"
    assert d["certificate"]["terms"][0]["row_factor"] == [["1", "0"], ["0", "0"]]
    assert d["certificate"]["terms"][0]["column_factor"] == [
        ["1/2", "-1/2"],
        ["-1/2", "1/2"],
    ]

    d = verdict_to_json_dict(verdict(build_graph(Dims(3, 3), UNKNOWN_EDGES)))
    assert d == {"verdict": "unknown", "certificate": None, "witness": None}

    e = frozenset({(1, 1), (2, 2)})
    lone = single_edge_graph(Dims(2, 2), e)
    wd = verdict_to_json_dict(
        Verdict(Status.ENTANGLED, witness=quadratic_witness(lone, e))
    )["witness"]
    assert wd == {
        "kind": "quadratic-form",
        "vector": ["3/8", "1/2", "1/2", "3/8"],
        "value": "-7/32",
        "degree_sum": 2,
    }


def test_pe_certificate_json():
    g = pe_matching_graph(Dims(2, 2), (2, 1))
    d = verdict_to_json_dict(Verdict(Status.SEPARABLE, certificate=pe_matching_certificate(g)))
    assert d["certificate"] == {
        "kind": "pe-matching",
        "permutation": [2, 1],
        "entangled_edges": [[[1, 1], [2, 2]], [[1, 2], [2, 1]]],
        "separable_edge_count": 0,
    }


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([Dims(2, 2), Dims(2, 3), Dims(3, 2), Dims(3, 3)]),
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=2**31),
)
def test_every_verdict_revalidates(dims, ns, ne, seed):
    ns = min(ns, separable_pool_size(dims))
    ne = min(ne, entangled_pool_size(dims))
    if ns + ne == 0:
        ns = 1
    g = random_graph(dims, ns, ne, seed)
    assert revalidate(g, verdict(g))


@st.composite
def pt_paired_graphs(draw):
    """Graphs on grids up to 4x4 where some entangled edges come with their
    partial-transpose image: {(i,j),(s,t)} paired with {(i,t),(s,j)}."""
    dims = Dims(draw(st.integers(2, 4)), draw(st.integers(2, 4)))
    chosen = draw(st.lists(st.sampled_from(entangled_edge_pool(dims)), min_size=1, max_size=6))
    paired = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    edges = set(draw(st.lists(st.sampled_from(separable_edge_pool(dims)), max_size=4)))
    for ((i, j), (s, t)), pair in zip(chosen, paired):
        edges.add(((i, j), (s, t)))
        if pair:
            edges.add(((i, t), (s, j)))
    return build_graph(dims, [frozenset(e) for e in edges])


@settings(max_examples=150, deadline=None)
@given(pt_paired_graphs())
def test_degree_preservation_equals_exact_ppt(g):
    # the theorem that lets verdict skip a separate positivity step
    exact = is_psd_exact(partial_transpose(laplacian(g), g.dims))
    assert degree_criterion(g).holds == exact
