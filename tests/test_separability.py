import random
from collections import Counter
from fractions import Fraction
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from graph_edges import edges_of
import graphsep.graphs
import graphsep.matrix
import graphsep.report
import graphsep.separability
from graphsep.errors import (
    BadParamsError,
    DimMismatchError,
    NotEntangledEdgeError,
    NotSymmetricError,
    WrongDimsError,
)
from graphsep.graphs import (
    Dims,
    EdgeClass,
    Graph,
    build_graph,
    classify_edge,
    complete_graph,
    density_matrix,
    entangled_edge_pool,
    laplacian,
    laplacian_entries,
    pe_matching_graph,
    random_graph,
    separable_edge_pool,
    single_edge_graph,
    star_graph,
)
from graphsep.separability import (
    BlockLineSumSymmetric,
    DegreeCriterionWitness,
    ProductDecomposition,
    Status,
    Verdict,
    _block_line_sums_match,
    _pt_row_sum,
    _pt_row_sums,
    all_separable_certificate,
    block_lss_certificate,
    degree_criterion,
    entangled_edge_witness,
    pe_matching_certificate,
    ppt_test,
    pt_laplacian_entries,
    reconstruct,
    revalidate,
    verdict,
    verdict_to_json_dict,
    witness_value,
)
from graphsep.matrix import (
    SparseSymMatrix,
    SymMatrix,
    _bareiss_psd,
    _dense_blocks,
    eigenvalues_sym,
    is_psd_exact,
    partial_transpose,
)
from graphsep.report import (
    analyze,
    density_eigenvalues,
    render_text,
    report_json_dict,
    spectrum,
)

STAR_GRIDS = [Dims(2, 2), Dims(2, 3), Dims(3, 2), Dims(2, 4), Dims(4, 2), Dims(3, 3)]


def test_ppt_single_edge():
    g = single_edge_graph(Dims(2, 2), {(1, 1), (2, 2)})
    assert not ppt_test(g)
    res = analyze(g)
    assert res.verdict.witness is not None
    assert res.min_eigenvalue_estimate == pytest.approx(-0.5, abs=1e-10)


def test_ppt_complete():
    g = complete_graph(Dims(2, 2))
    assert ppt_test(g)
    res = analyze(g)
    assert res.verdict.witness is None
    assert res.min_eigenvalue_estimate == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("dims", STAR_GRIDS)
def test_degree_criterion_star(dims):
    res = degree_criterion(star_graph(dims))
    assert res == DegreeCriterionWitness((dims.p - 1) * dims.q + 1, -(dims.q - 1))


def test_degree_criterion_holds_for_complete():
    assert degree_criterion(complete_graph(Dims(3, 3))) is None


def test_witness_vector_2x2():
    vec = entangled_edge_witness(Dims(2, 2), {(1, 1), (2, 2)})
    assert vec == (Fraction(3, 8), Fraction(1, 2), Fraction(1, 2), Fraction(3, 8))


def test_witness_vector_2x3_positions():
    vec = entangled_edge_witness(Dims(2, 3), {(1, 1), (2, 2)})
    assert vec[0] == Fraction(2, 5)
    assert vec[4] == Fraction(2, 5)
    assert all(x == Fraction(1, 2) for i, x in enumerate(vec) if i not in (0, 4))


def test_witness_rejects_separable_edge():
    # a same-row edge, and sets that are not an edge: three vertices or none
    for edge in ({(1, 1), (1, 2)}, {(1, 1), (2, 2), (1, 2)}, set()):
        with pytest.raises(NotEntangledEdgeError):
            entangled_edge_witness(Dims(2, 2), edge)
    # an edge that is not a collection is a bad parameter, not a TypeError
    with pytest.raises(BadParamsError, match="set of vertices"):
        entangled_edge_witness(Dims(2, 2), 5)
    # a vertex Graph refuses is refused here too, not read as (1, 1)
    for bad in ((True, 1), (1.0, 1), ("1", 1)):
        with pytest.raises(BadParamsError, match="pair of ints"):
            entangled_edge_witness(Dims(2, 2), {bad, (2, 2)})


def test_witness_values_known():
    e = frozenset({(1, 1), (2, 2)})
    vec = entangled_edge_witness(Dims(2, 2), e)
    lone = single_edge_graph(Dims(2, 2), e)
    assert witness_value(lone, vec) == Fraction(-7, 32)

    sep = [frozenset(pr) for pr in separable_edge_pool(Dims(2, 2))]
    full = build_graph(Dims(2, 2), sep + [e])
    assert witness_value(full, vec) == Fraction(-5, 32)
    assert full.degree_sum == 10

    # the guarantee needs e to be the only entangled edge, or every
    # entangled edge to share a vertex: the complete graph adds
    # {(1,2),(2,1)}, disjoint from e, and the value turns positive
    assert witness_value(complete_graph(Dims(2, 2)), vec) == Fraction(1, 16)

    # separable edge away from the marked endpoints contributes nothing
    g = build_graph(Dims(2, 3), [frozenset({(1, 2), (1, 3)})])
    vec = entangled_edge_witness(Dims(2, 3), {(1, 1), (2, 2)})
    assert witness_value(g, vec) == 0
    # a vector of another grid's order
    with pytest.raises(DimMismatchError, match="^vector length 4 != order 6$"):
        witness_value(g, entangled_edge_witness(Dims(2, 2), e))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([Dims(2, 2), Dims(2, 3), Dims(3, 3), Dims(4, 2)]),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=2**31),
)
def test_one_entangled_edge_always_entangled(dims, ns, seed):
    ns = min(ns, len(separable_edge_pool(dims)))
    g = random_graph(dims, ns, 1, seed)
    v = verdict(g)
    assert v.status == Status.ENTANGLED
    assert revalidate(g, v)
    e = next((u, v) for u, v in g.sorted_edges if u[0] != v[0] and u[1] != v[1])
    assert witness_value(g, entangled_edge_witness(dims, e)) < 0


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
    row_term = next(t for t in cert.terms if t[1].entries == {(0, 0): 1})
    assert row_term[2].entries == {(0, 0): half, (0, 1): -half, (1, 0): -half, (1, 1): half}
    assert row_term[2].dense().rows == ((half, -half), (-half, half))


SAME_ROW_2X4 = build_graph(Dims(2, 4), [{(1, 1), (1, 2)}, {(1, 3), (1, 4)}])


def test_product_terms_share_equal_factors():
    # both edges lie in row 1, so both terms take the one row-1 point mass
    (_, r0, c0), (_, r1, c1) = all_separable_certificate(SAME_ROW_2X4).terms
    assert r0 is r1 and c0 is not c1
    row = [["1", "0"], ["0", "0"]]
    zeros = ["0", "0", "0", "0"]
    assert verdict_to_json_dict(verdict(SAME_ROW_2X4)) == {
        "verdict": "separable",
        "certificate": {
            "kind": "all-edges-separable",
            "terms": [
                {
                    "weight": "1/2",
                    "row_factor": row,
                    "column_factor": [
                        ["1/2", "-1/2", "0", "0"],
                        ["-1/2", "1/2", "0", "0"],
                        zeros,
                        zeros,
                    ],
                },
                {
                    "weight": "1/2",
                    "row_factor": row,
                    "column_factor": [
                        zeros,
                        zeros,
                        ["0", "0", "1/2", "-1/2"],
                        ["0", "0", "-1/2", "1/2"],
                    ],
                },
            ],
        },
        "witness": None,
    }


def test_shared_factor_is_checked_whatever_its_terms():
    # each mixture below equals the density matrix with weights summing to
    # 1, so only a factor's trace or PSD check can refuse it; the trace-2
    # factor and the indefinite one are each shared by two terms
    g = SAME_ROW_2X4
    (_, row, col0), (_, _, col1) = all_separable_certificate(g).terms
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    double = SparseSymMatrix(2, {(0, 0): 2})  # trace 2
    halves = [_scaled(c, half) for c in (col0, col1)]  # trace 1/2
    traced = ProductDecomposition(((half, double, halves[0]), (half, double, halves[1])))
    # unit trace, not PSD; it plus the PSD point mass at row 2 is twice row's
    negative = SparseSymMatrix(2, {(0, 0): 2, (1, 1): -1})
    other = SparseSymMatrix(2, {(1, 1): 1})
    indefinite = ProductDecomposition(tuple(
        (quarter, r, c) for r in (negative, other) for c in (col0, col1)
    ))
    for cert in (traced, indefinite):
        assert reconstruct(cert) == density_matrix(g)
        claim = Verdict(Status.SEPARABLE, certificate=cert)
        assert not revalidate(g, claim) and not dense_product_rule(g, cert)
    assert revalidate(g, Verdict(Status.SEPARABLE, certificate=ProductDecomposition(
        ((half, row, col0), (half, row, col1))
    )))


def test_product_decomposition_denied_with_entangled_edge():
    g = single_edge_graph(Dims(2, 2), {(1, 1), (2, 2)})
    assert all_separable_certificate(g) is None


def swap_subsystems(g):
    """The same state with its subsystems exchanged: (i, j) becomes (j, i)."""
    p, q = g.dims
    return build_graph(Dims(q, p), [frozenset((j, i) for i, j in e) for e in edges_of(g)])


MATCHING_2X4 = pe_matching_graph(Dims(2, 4), (2, 3, 4, 1))


def test_block_certificate():
    assert block_lss_certificate(complete_graph(Dims(2, 2))) == BlockLineSumSymmetric(False)
    assert block_lss_certificate(complete_graph(Dims(3, 3))) == BlockLineSumSymmetric(False)
    assert block_lss_certificate(star_graph(Dims(2, 2))) is None
    # the 2x4 matching is certified as given, its 4x2 swap only in swapped order
    assert block_lss_certificate(MATCHING_2X4) == BlockLineSumSymmetric(False)
    swapped = swap_subsystems(MATCHING_2X4)
    assert block_lss_certificate(swapped) == BlockLineSumSymmetric(True)


def test_pe_certificate_full_matching():
    g = pe_matching_graph(Dims(2, 2), (2, 1))
    assert pe_matching_certificate(g) == BlockLineSumSymmetric(False)


def test_pe_certificate_survives_separable_edges():
    base = pe_matching_graph(Dims(2, 3), (2, 3, 1))
    g = build_graph(
        Dims(2, 3), [*base.sorted_edges, frozenset({(1, 1), (1, 2)})]
    )
    assert pe_matching_certificate(g) == BlockLineSumSymmetric(False)


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


def test_graph_built_with_plain_tuple_dims():
    g = Graph((2, 2), frozenset({frozenset({(1, 1), (2, 2)})}))
    assert isinstance(g.dims, Dims)
    v = verdict(g)
    assert v.status == Status.ENTANGLED
    assert v.witness == DegreeCriterionWitness(3, -1)


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
    # degree-preserving entangled cycle on 3x2: its blocks are line-sum
    # symmetric only with the subsystems swapped, on the 2x3 grid
    g = build_graph(Dims(3, 2), LOW_DIM_CYCLE)
    assert ppt_test(g)
    v = verdict(g)
    assert v.status == Status.SEPARABLE
    assert v.certificate == BlockLineSumSymmetric(swapped=True)
    assert revalidate(g, v)
    assert not revalidate(g, Verdict(Status.SEPARABLE, certificate=BlockLineSumSymmetric()))


# degree-preserving, but line-sum symmetric in neither subsystem order
UNKNOWN_EDGES = [
    frozenset({(1, 1), (2, 2)}),
    frozenset({(1, 2), (2, 3)}),
    frozenset({(1, 3), (3, 1)}),
    frozenset({(2, 1), (3, 3)}),
]


def test_verdict_unknown_instance():
    g = build_graph(Dims(3, 3), UNKNOWN_EDGES)
    assert ppt_test(g)
    assert degree_criterion(g) is None
    assert block_lss_certificate(g) is None
    v = verdict(g)
    assert v.status == Status.UNKNOWN
    assert v.certificate is None and v.witness is None
    assert revalidate(g, v)
    # the claim must be this verdict itself, not a look-alike status
    assert not revalidate(g, Verdict("unknown"))


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
    # the paper's test vector is not verdict evidence, even where it is
    # negative: an entangled verdict carries a degree witness
    e = frozenset({(1, 1), (2, 2)})
    lone = single_edge_graph(Dims(2, 2), e)
    vec = entangled_edge_witness(Dims(2, 2), e)
    assert witness_value(lone, vec) < 0
    assert not revalidate(lone, Verdict(Status.ENTANGLED, witness=vec))
    # unknown claim for a decided graph, entangled or separable
    assert not revalidate(star, Verdict(Status.UNKNOWN))
    assert not revalidate(complete_graph(Dims(3, 3)), Verdict(Status.UNKNOWN))
    # block certificate claiming the subsystem order that does not hold
    claim = Verdict(Status.SEPARABLE, certificate=BlockLineSumSymmetric(swapped=True))
    assert not revalidate(MATCHING_2X4, claim)
    claim = Verdict(Status.SEPARABLE, certificate=BlockLineSumSymmetric(swapped=False))
    assert not revalidate(swap_subsystems(MATCHING_2X4), claim)
    # product factors that keep the weights, traces and mixture but are not
    # states: diag(3/2, -1/2) and diag(-1/2, 3/2) sum to the two point masses
    rows = build_graph(Dims(2, 2), [{(1, 1), (1, 2)}, {(2, 1), (2, 2)}])
    honest = all_separable_certificate(rows)
    assert revalidate(rows, Verdict(Status.SEPARABLE, certificate=honest))
    (w0, r0, c0), (w1, r1, c1) = honest.terms
    big, small = Fraction(3, 2), Fraction(-1, 2)
    unphysical = ProductDecomposition((
        (w0, SparseSymMatrix(2, {(0, 0): big, (1, 1): small}), c0),
        (w1, SparseSymMatrix(2, {(0, 0): small, (1, 1): big}), c1),
    ))
    assert not revalidate(rows, Verdict(Status.SEPARABLE, certificate=unphysical))
    # positive weights that sum to 2: the honest terms, each weight doubled
    doubled = ProductDecomposition(tuple((2 * w, r, c) for w, r, c in honest.terms))
    assert not revalidate(rows, Verdict(Status.SEPARABLE, certificate=doubled))
    # a row factor of order 3 on a 2-row grid, with the same nonzero entries
    wide = ProductDecomposition(((w0, SparseSymMatrix(3, r0.entries), c0), (w1, r1, c1)))
    assert not revalidate(rows, Verdict(Status.SEPARABLE, certificate=wide))
    # malformed evidence is refused, not raised on: factors that are not
    # SparseSymMatrix, a float weight, terms of the wrong shape, and degree
    # witness entries that are not int
    for bad in (SymMatrix(((1, 0), (0, 0))), "factor"):
        forged = ProductDecomposition(((w0, bad, c0), (w1, r1, c1)))
        assert not revalidate(rows, Verdict(Status.SEPARABLE, certificate=forged))
    single = build_graph(Dims(2, 2), [{(1, 1), (1, 2)}])
    (weight, row_factor, col_factor), = all_separable_certificate(single).terms
    assert weight == 1
    floated = ProductDecomposition(((1.0, row_factor, col_factor),))
    assert not revalidate(single, Verdict(Status.SEPARABLE, certificate=floated))
    # a bool is an int, but not a weight: True would pass for the 1
    booled = ProductDecomposition(((True, row_factor, col_factor),))
    assert not revalidate(single, Verdict(Status.SEPARABLE, certificate=booled))
    for terms in (((weight, row_factor),), 5, [(weight, row_factor, col_factor)]):
        forged = ProductDecomposition(terms)
        assert not revalidate(single, Verdict(Status.SEPARABLE, certificate=forged))
    # weights and factors of exact types only: a Fraction whose numerator
    # is a float would sum the mixture in floats, and a SparseSymMatrix that
    # skips its entry checks may hold a float or an entry without its mirror
    class FloatNumerator(Fraction):
        numerator = property(lambda self: float(super().numerator))

    class Unchecked(SparseSymMatrix):
        def __post_init__(self):
            object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))

    floated = ProductDecomposition(((FloatNumerator(1), row_factor, col_factor),))
    assert not revalidate(single, Verdict(Status.SEPARABLE, certificate=floated))
    # the subclass is refused even with the honest entries
    for row, col in ((Unchecked(2, row_factor.entries), col_factor),
                     (row_factor, Unchecked(2, col_factor.entries)),
                     (Unchecked(2, {(0, 0): 1.0}), col_factor),
                     (row_factor, Unchecked(2, {(0, 0): 1, (0, 1): 1}))):
        forged = ProductDecomposition(((weight, row, col),))
        assert not revalidate(single, Verdict(Status.SEPARABLE, certificate=forged))
    for forged in (DegreeCriterionWitness(3, -1.0), DegreeCriterionWitness([3], -1)):
        assert not revalidate(star, Verdict(Status.ENTANGLED, witness=forged))
    # a bool is an int, but not a row or a row sum: on the crossed 2x2 edge
    # row 1 sums to -1 and row 2 to +1, so True would pass for the 1 in each
    crossed = single_edge_graph(Dims(2, 2), {(1, 2), (2, 1)})
    for honest in (DegreeCriterionWitness(1, -1), DegreeCriterionWitness(2, 1)):
        assert revalidate(crossed, Verdict(Status.ENTANGLED, witness=honest))
    for forged in (DegreeCriterionWitness(True, -1), DegreeCriterionWitness(2, True)):
        assert not revalidate(crossed, Verdict(Status.ENTANGLED, witness=forged))
    # a block certificate whose swapped flag is not a bool
    for swapped in ("no", 0.0, None, [0]):
        forged = BlockLineSumSymmetric(swapped=swapped)
        assert not revalidate(k4, Verdict(Status.SEPARABLE, certificate=forged))
    # factors with entries outside their order or without a matching mirror
    # are refused when built
    with pytest.raises(DimMismatchError):
        SparseSymMatrix(2, {(2, 2): 1})
    with pytest.raises(NotSymmetricError):
        SparseSymMatrix(2, {(0, 0): 1, (0, 1): Fraction(1, 2)})


def test_revalidate_takes_only_the_exact_evidence_types():
    k4 = complete_graph(Dims(2, 2))
    star = star_graph(Dims(2, 2))

    class Block(BlockLineSumSymmetric):
        pass

    class Degree(DegreeCriterionWitness):
        pass

    class Lenient(BlockLineSumSymmetric):
        def check(self, g):
            return True

    class EqualToEveryClass(type):
        def __eq__(cls, other):
            return True

        __hash__ = type.__hash__

    class LookAlike(metaclass=EqualToEveryClass):
        kind = BlockLineSumSymmetric.kind

        def check(self, g):
            return True

    # the same data in the exact types revalidates, but only alone: honest
    # evidence of the other status beside it is refused
    block, degree = BlockLineSumSymmetric(), DegreeCriterionWitness(3, -1)
    assert revalidate(k4, Verdict(Status.SEPARABLE, certificate=block))
    assert revalidate(star, Verdict(Status.ENTANGLED, witness=degree))
    assert not revalidate(k4, Verdict(Status.SEPARABLE, block, degree_criterion(star)))
    assert not revalidate(star, Verdict(Status.ENTANGLED, block, degree))
    # a subclass is refused even with honest data, and so is one whose own
    # check passes anything, or a class that compares equal to every class
    assert not revalidate(k4, Verdict(Status.SEPARABLE, certificate=Block()))
    assert not revalidate(star, Verdict(Status.ENTANGLED, witness=Degree(3, -1)))
    for forged in (Lenient(), LookAlike()):
        assert not revalidate(star, Verdict(Status.SEPARABLE, certificate=forged))
        assert not revalidate(star, Verdict(Status.ENTANGLED, witness=forged))


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
        "certificate": {"kind": "block-line-sum-symmetric", "swapped": False},
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

    # the subsystem order is a JSON key; text names it only when swapped
    for g, swapped, suffix in ((MATCHING_2X4, False, ""),
                               (swap_subsystems(MATCHING_2X4), True, ", subsystems swapped")):
        d = verdict_to_json_dict(verdict(g))
        assert d["certificate"] == {"kind": "block-line-sum-symmetric", "swapped": swapped}
        head = render_text(analyze(g)).splitlines()[0]
        assert head == f"verdict: separable (block-line-sum-symmetric{suffix})"

    d = verdict_to_json_dict(verdict(build_graph(Dims(3, 3), UNKNOWN_EDGES)))
    assert d == {"verdict": "unknown", "certificate": None, "witness": None}


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([Dims(2, 2), Dims(2, 3), Dims(3, 2), Dims(3, 3)]),
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=0, max_value=2**31),
)
def test_every_verdict_revalidates(dims, ns, ne, seed):
    ns = min(ns, len(separable_edge_pool(dims)))
    ne = min(ne, len(entangled_edge_pool(dims)))
    if ns + ne == 0:
        ns = 1
    g = random_graph(dims, ns, ne, seed)
    assert revalidate(g, verdict(g))


@st.composite
def pt_paired_graphs(draw):
    """Graphs on grids up to 4x4 where some entangled edges come with their
    partial-transpose image: {(i,j),(s,t)} paired with {(i,t),(s,j)}.  A graph
    with no entangled edge at all gets at least one separable edge."""
    dims = Dims(draw(st.integers(2, 4)), draw(st.integers(2, 4)))
    chosen = draw(st.lists(st.sampled_from(entangled_edge_pool(dims)), max_size=6))
    paired = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    separable = st.sampled_from(separable_edge_pool(dims))
    edges = set(draw(st.lists(separable, min_size=0 if chosen else 1, max_size=4)))
    for ((i, j), (s, t)), pair in zip(chosen, paired):
        edges.add(((i, j), (s, t)))
        if pair:
            edges.add(((i, t), (s, j)))
    return build_graph(dims, [frozenset(e) for e in edges])


@st.composite
def random_grid_graphs(draw):
    """random_graph on grids up to 4x4, from one edge up to every edge."""
    dims = Dims(draw(st.integers(2, 4)), draw(st.integers(2, 4)))
    ns = draw(st.integers(0, len(separable_edge_pool(dims))))
    ne = draw(st.integers(0 if ns else 1, len(entangled_edge_pool(dims))))
    return random_graph(dims, ns, ne, draw(st.integers(0, 2**31)))


def dense_degree_criterion(pt):
    """The degree witness, or None, from the rows of a dense matrix."""
    sums = [sum(row) for row in pt.rows]
    negative = [r + 1 for r, x in enumerate(sums) if x < 0]
    if not negative:
        return None
    return DegreeCriterionWitness(negative[-1], sums[negative[-1] - 1])


def dense_blocks_line_sum_symmetric(lap, dims):
    p, q = dims
    for a in range(p):
        for b in range(p):
            blk = [[lap.rows[a * q + r][b * q + c] for c in range(q)] for r in range(q)]
            if any(sum(blk[l]) != sum(row[l] for row in blk) for l in range(q)):
                return False
    return True


def assert_block_certificate_matches_dense(g):
    """block_lss_certificate against the dense block sums of g and of its
    subsystem swap: the order as given wins when both hold."""
    direct = dense_blocks_line_sum_symmetric(laplacian(g), g.dims)
    sw = swap_subsystems(g)
    swapped = dense_blocks_line_sum_symmetric(laplacian(sw), sw.dims)
    cert = block_lss_certificate(g)
    if direct or swapped:
        assert cert == BlockLineSumSymmetric(swapped=not direct)
    else:
        assert cert is None


@settings(max_examples=150, deadline=None)
@given(pt_paired_graphs(), st.data())
def test_degree_preservation_equals_exact_ppt(g, data):
    # the theorem that lets verdict skip a separate positivity step, and the
    # edge-based checks against dense references
    # the expected map from the edge list alone: the degrees on the diagonal,
    # and -1 at ((i,t),(s,j)) and its mirror for each edge {(i,j),(s,t)}
    def index(i, j):
        return (i - 1) * g.dims.q + j - 1

    expected = Counter()
    for (i, j), (s, t) in g.sorted_edges:
        a, b = index(i, t), index(s, j)
        expected[index(i, j), index(i, j)] += 1
        expected[index(s, t), index(s, t)] += 1
        expected[a, b] -= 1
        expected[b, a] -= 1
    assert pt_laplacian_entries(g) == expected
    pt = partial_transpose(laplacian(g), g.dims)
    degree = degree_criterion(g)
    assert (degree is None) == is_psd_exact(pt)
    # is_psd_exact decides these by row sums alone, the degree theorem's own
    # terms, so elimination confirms the theorem independently
    blocks = _dense_blocks(pt_laplacian_entries(g), 0)
    assert (degree is None) == all(_bareiss_psd(a) for a in blocks)
    assert degree == dense_degree_criterion(pt)
    assert_block_certificate_matches_dense(g)
    x = data.draw(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=7),
            min_size=g.n,
            max_size=g.n,
        )
    )
    dense = sum(x[r] * e * x[c] for r, row in enumerate(pt.rows) for c, e in enumerate(row))
    assert witness_value(g, x) == dense


@st.composite
def random_grid_graphs_with_loops(draw):
    """random_grid_graphs plus up to three loops: all three edge classes and
    loops mixed, and mostly degree-violating."""
    g = draw(random_grid_graphs())
    p, q = g.dims
    vertex = st.tuples(st.integers(1, p), st.integers(1, q))
    loops = draw(st.lists(vertex, max_size=3))
    return build_graph(g.dims, edges_of(g) + [frozenset({v}) for v in loops])


@settings(max_examples=150, deadline=None)
@given(random_grid_graphs_with_loops())
def test_edge_shortcuts_match_dense_references(g):
    # the degree and block checks read only the entangled edges, whose
    # updates do not cancel, and the edge checks classify by coordinates;
    # each is held against a reference that visits every edge
    lap = laplacian(g)
    pt = partial_transpose(lap, g.dims)
    assert degree_criterion(g) == dense_degree_criterion(pt)
    assert_block_certificate_matches_dense(g)
    classes = [classify_edge(e) for e in edges_of(g)]
    entangled = EdgeClass.ENTANGLED in classes
    assert (all_separable_certificate(g) is None) == entangled
    want = {cls.value: 0 for cls in EdgeClass}
    for cls in classes:
        want[cls.value] += 1
    assert list(analyze(g).edge_classes.items()) == list(want.items())
    assert g.sorted_edges == tuple(
        sorted(tuple(sorted(e)) for e in edges_of(g) if len(e) == 2)
    )
    assert g.entangled_edges == tuple(
        pr for pr in g.sorted_edges if classify_edge(pr) == EdgeClass.ENTANGLED
    )


@settings(max_examples=150, deadline=None)
@given(random_grid_graphs_with_loops())
def test_degree_violating_graphs_earn_no_certificate(g):
    # why analyze asks for no certificate once degrees change: each one makes
    # the state separable, so PPT, so degree-preserving
    assume(degree_criterion(g) is not None)
    assert all_separable_certificate(g) is None
    assert not _block_line_sums_match(g, False)
    assert not _block_line_sums_match(g, True)


@settings(max_examples=150, deadline=None)
@given(st.one_of(random_grid_graphs_with_loops(), pt_paired_graphs()))
@example(build_graph(Dims(2, 3), [{(1, 1), (1, 3)}, {(1, 2), (2, 2)}]))
def test_every_check_evidence_revalidates_on_its_own(g):
    # each check returns its evidence or None, and that evidence stands on
    # its own even where verdict takes an earlier check's: on an
    # all-separable graph the block certificate also fires, but second
    witness = degree_criterion(g)
    if witness is not None:
        assert revalidate(g, Verdict(Status.ENTANGLED, witness=witness))
    for check in (all_separable_certificate, block_lss_certificate):
        cert = check(g)
        if cert is not None:
            assert revalidate(g, Verdict(Status.SEPARABLE, certificate=cert))
    r = analyze(g)
    assert r.verdict.witness == witness
    v = verdict(g)
    assert r.verdict == v
    if v.status == Status.ENTANGLED:
        assert v.witness == witness
    # with degrees preserved the report lists every certificate check that
    # returns evidence, the ones verdict never ran included; otherwise none
    granted = tuple(
        cert.kind
        for cert in (all_separable_certificate(g), block_lss_certificate(g))
        if cert is not None
    )
    assert r.certificates == (granted if witness is None else ())


def test_analyze_takes_no_certificate_when_degrees_change(monkeypatch):
    def granted(g):
        raise AssertionError("certificates asked for")

    for name in ("all_separable_certificate", "block_lss_certificate"):
        monkeypatch.setattr(graphsep.separability, name, granted)
    r = analyze(star_graph(Dims(3, 3)))
    assert r.verdict.status == Status.ENTANGLED and r.certificates == ()


def test_analyze_refuses_evidence_that_fails_revalidation(monkeypatch):
    monkeypatch.setattr(graphsep.report, "revalidate", lambda g, v: False)
    with pytest.raises(RuntimeError, match="^verdict evidence failed revalidation$"):
        analyze(star_graph(Dims(2, 2)))


@settings(max_examples=150, deadline=None)
@given(pt_paired_graphs())
def test_sparse_purity_and_product_revalidation_match_dense(g):
    sigma = density_matrix(g)
    assert analyze(g).purity == sum(x * x for row in sigma.rows for x in row)
    spec = spectrum(g)
    for key, dense in (("density", sigma), ("partial_transpose", partial_transpose(sigma, g.dims))):
        want = np.linalg.eigvalsh(np.array(dense.rows, dtype=float))
        assert spec[key] == pytest.approx(sorted(want), abs=1e-9)
    cert = all_separable_certificate(g)
    if cert is None:
        return
    certs = [cert]
    if len(cert.terms) >= 2:
        (w0, r0, c0), (w1, r1, c1) = cert.terms[:2]
        certs.append(ProductDecomposition(((w0, r0, c1), (w1, r1, c0)) + cert.terms[2:]))
    for c in certs:
        claim = Verdict(Status.SEPARABLE, certificate=c)
        assert revalidate(g, claim) == (reconstruct(c) == sigma)
    assert revalidate(g, Verdict(Status.SEPARABLE, certificate=cert))


def dense_product_rule(g, cert):
    """The product rule with dense arithmetic over Fraction: positive
    weights, factors of the grid's orders with unit trace that are PSD, and
    a reconstructed mixture equal to the density matrix."""
    for weight, row_factor, col_factor in cert.terms:
        if weight <= 0:
            return False
        for factor, dim in ((row_factor, g.dims.p), (col_factor, g.dims.q)):
            trace = sum(x for (r, c), x in factor.entries.items() if r == c)
            if factor.order != dim or trace != 1:
                return False
            if not is_psd_exact(factor.dense()):
                return False
    return reconstruct(cert) == density_matrix(g)


@st.composite
def all_separable_graphs(draw):
    """random_graph with only same-row and same-column edges, grids up to 4x4."""
    dims = Dims(draw(st.integers(2, 4)), draw(st.integers(2, 4)))
    ns = draw(st.integers(1, min(6, len(separable_edge_pool(dims)))))
    return random_graph(dims, ns, 0, draw(st.integers(0, 2**31)))


def _scaled(factor, by):
    return SparseSymMatrix(factor.order, {k: x * by for k, x in factor.entries.items()})


@settings(max_examples=150, deadline=None)
@given(all_separable_graphs(), st.data())
def test_product_revalidation_over_a_common_denominator(g, data):
    # revalidate sums the mixture in ints over the lcm of every weight's and
    # entry's denominator; forged mixtures with mixed denominators must get
    # the verdict the dense Fraction rule gives
    terms = list(all_separable_certificate(g).terms)
    third, seventh = Fraction(1, 3), Fraction(1, 7)
    ops = ("split", "move", "scale", "zero", "negate", "share")
    for op in data.draw(st.lists(st.sampled_from(ops), min_size=1, max_size=3)):
        i = data.draw(st.integers(0, len(terms) - 1))
        j = data.draw(st.integers(0, len(terms) - 1))
        w, rf, cf = terms[i]
        if op == "split":  # the same mixture: accepted when nothing else changed
            part = data.draw(st.sampled_from([third, seventh, 2 * seventh]))
            terms[i : i + 1] = [(w * part, rf, cf), (w * (1 - part), rf, cf)]
        elif op == "move":
            delta = data.draw(st.sampled_from([third, seventh]))
            terms[i] = (w - delta, rf, cf)
            wj, rj, cj = terms[j]
            terms[j] = (wj + delta, rj, cj)
        elif op == "scale":
            terms[i] = (w, _scaled(rf, Fraction(3, 2)), cf)
            wj, rj, cj = terms[j]
            terms[j] = (wj, rj, _scaled(cj, Fraction(2, 3)))
        elif op == "share":  # term i's factor object in term j too
            wj, rj, cj = terms[j]
            terms[j] = (wj, rf, cj) if data.draw(st.booleans()) else (wj, rj, cf)
        elif op == "zero":
            terms[i] = (0, rf, cf)
        else:
            terms[i] = (-w, rf, cf)
    cert = ProductDecomposition(tuple(terms))
    claim = Verdict(Status.SEPARABLE, certificate=cert)
    assert revalidate(g, claim) == dense_product_rule(g, cert)


@settings(max_examples=150, deadline=None)
@given(st.one_of(random_grid_graphs_with_loops(), pt_paired_graphs()))
def test_degree_witness_row_sum_matches_every_row_sum(g):
    # revalidate sums the witness's own row; degree_criterion reads every
    # row's sum from _pt_row_sums, so each checks the other at every row
    sums = _pt_row_sums(g)
    assert 0 not in sums and g.n + 1 not in sums
    for row in range(g.n + 2):
        x = sums.get(row, 0)
        assert _pt_row_sum(g, row) == x
        if x:
            claim = Verdict(Status.ENTANGLED, witness=DegreeCriterionWitness(row, x))
            assert revalidate(g, claim)
        for off in (x - 1, x + 1) if x else (-1, 1):
            claim = Verdict(Status.ENTANGLED, witness=DegreeCriterionWitness(row, off))
            assert not revalidate(g, claim)


def test_sparse_verdicts_build_no_dense_matrix(monkeypatch):
    # 10^4- and 10^6-vertex grids: any n-by-n build would take far too long,
    # and certificate factors keep only their nonzero entries
    def dense(*args):
        raise AssertionError("dense matrix built")

    monkeypatch.setattr(SymMatrix, "__post_init__", dense)

    for name in ("laplacian", "density_matrix"):
        monkeypatch.setattr(graphsep.graphs, name, dense)
    monkeypatch.setattr(graphsep.matrix, "partial_transpose", dense)
    for name in ("kron", "reconstruct"):
        monkeypatch.setattr(graphsep.separability, name, dense)
    grid = Dims(100, 100)
    rows_and_columns = [
        {(3, 5), (3, 90)},
        {(3, 5), (77, 5)},
        {(100, 1), (100, 100)},
        {(50, 50), (51, 50)},
        {(1, 1), (2, 1)},
        {(64, 7), (64, 8)},
    ]
    separable = build_graph(grid, rows_and_columns)
    v = verdict(separable)
    assert isinstance(v.certificate, ProductDecomposition)
    assert revalidate(separable, v)
    dims = Dims(1000, 1000)
    edge = frozenset({(500, 7), (999, 1000)})
    image = frozenset({(500, 1000), (999, 7)})
    lone = build_graph(dims, [edge])
    v = verdict(lone)
    assert v.witness == DegreeCriterionWitness(998 * 1000 + 7, -1)
    assert revalidate(lone, v)
    paired = build_graph(dims, [edge, image])
    v = verdict(paired)
    assert v.status == Status.SEPARABLE
    assert isinstance(v.certificate, BlockLineSumSymmetric)
    assert revalidate(paired, v)


def test_degree_preserving_reports_run_no_jacobi(monkeypatch):
    def jacobi(*args):
        raise AssertionError("Jacobi ran")

    monkeypatch.setattr(graphsep.report, "eigenvalues_sym", jacobi)
    graphs = [
        complete_graph(Dims(8, 8)),
        pe_matching_graph(Dims(2, 6), (2, 3, 4, 5, 6, 1)),
        build_graph(Dims(3, 3), [{(1, 1), (2, 3)}, {(1, 3), (2, 1)}, {(3, 1), (3, 2)}]),
        build_graph(Dims(3, 4), [{(1, 1), (1, 4)}, {(2, 2), (3, 2)}]),
    ]
    for g in graphs:
        r = analyze(g)
        assert r.verdict.witness is None and r.verdict.status == Status.SEPARABLE
        assert r.min_eigenvalue_estimate == 0.0
        assert report_json_dict(r)["ppt"]["min_eigenvalue_estimate"] == 0.0
        assert "(min eigenvalue about 0)" in render_text(r)


def test_analyze_builds_laplacian_entries_at_most_once(monkeypatch):
    calls = []

    def counting(g):
        calls.append(g)
        return laplacian_entries(g)

    monkeypatch.setattr(graphsep.report, "laplacian_entries", counting)
    for g in (complete_graph(Dims(4, 4)), star_graph(Dims(3, 4))):
        for include_spectrum, want in ((False, 0), (True, 1)):
            calls.clear()
            r = analyze(g, include_spectrum=include_spectrum)
            assert len(calls) == want
            squares = sum(x * x for x in laplacian_entries(g).values())
            assert r.purity == Fraction(squares, g.degree_sum**2)


def test_spectrum_runs_jacobi_once_per_distinct_matrix(monkeypatch):
    calls = []

    def counting(entries, n):
        calls.append(n)
        return eigenvalues_sym(entries, n)

    monkeypatch.setattr(graphsep.report, "eigenvalues_sym", counting)
    for g, want in ((complete_graph(Dims(4, 4)), 1), (star_graph(Dims(4, 4)), 2)):
        calls.clear()
        spec = spectrum(g)
        assert len(calls) == want
        assert spec["density"] == density_eigenvalues(laplacian_entries(g), g)
        assert spec["partial_transpose"] == density_eigenvalues(pt_laplacian_entries(g), g)


@settings(max_examples=150, deadline=None)
@given(st.one_of(random_grid_graphs(), pt_paired_graphs()))
def test_min_eigenvalue_estimate_matches_numpy(g):
    pt = partial_transpose(density_matrix(g), g.dims)
    least = np.linalg.eigvalsh(np.array(pt.rows, dtype=float))[0]
    r = analyze(g)
    assert (r.min_eigenvalue_estimate == 0.0) == (r.verdict.witness is None)
    if r.verdict.witness is None:
        assert least >= -1e-9
    else:
        assert r.min_eigenvalue_estimate == pytest.approx(least, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.one_of(random_grid_graphs(), pt_paired_graphs()))
def test_separable_verdicts_pass_realignment(g):
    # CCNR, the realignment criterion (Rudolph, quant-ph/0202121): a state
    # whose realigned matrix has trace norm above 1 is entangled
    if verdict(g).status != Status.SEPARABLE:
        return
    p, q = g.dims
    rho = np.array(density_matrix(g).rows, dtype=float)
    realigned = rho.reshape(p, q, p, q).transpose(0, 2, 1, 3).reshape(p * p, q * q)
    assert np.linalg.svd(realigned, compute_uv=False).sum() <= 1 + 1e-9


def test_no_small_grid_verdict_is_unknown():
    # every edge set on 2x2, 2x3 and 3x2: on a 2xQ grid line-sum symmetry of
    # the one off-diagonal block is degree preservation, and a Px2 grid is
    # a 2xP grid with its subsystems swapped
    for dims in (Dims(2, 2), Dims(2, 3), Dims(3, 2)):
        pool = complete_graph(dims).sorted_edges
        for mask in range(1, 1 << len(pool)):
            edges = frozenset(frozenset(e) for k, e in enumerate(pool) if mask >> k & 1)
            assert verdict(Graph(dims, edges)).status != Status.UNKNOWN, (dims, edges)


METAMORPHIC_GRIDS = [Dims(2, 4), Dims(4, 2), Dims(3, 3), Dims(3, 4), Dims(4, 3), Dims(4, 4)]


@st.composite
def frontier_graphs(draw):
    """Graphs on METAMORPHIC_GRIDS, three in four of them degree-preserving.

    Those are rejection-sampled: 2-6 entangled edges are drawn until the
    degrees hold, so they reach past the certificates to UNKNOWN.  Up to
    three separable edges are added, which change neither the degrees nor
    the block sums.  The rest are random_graph draws, mostly entangled.
    """
    dims = draw(st.sampled_from(METAMORPHIC_GRIDS))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if not draw(st.integers(0, 3)):
        ns = rng.randint(0, len(separable_edge_pool(dims)))
        ne = rng.randint(0 if ns else 1, len(entangled_edge_pool(dims)))
        return random_graph(dims, ns, ne, rng.randrange(2**31))
    entangled = entangled_edge_pool(dims)
    separable = rng.sample(separable_edge_pool(dims), rng.randint(0, 3))
    while True:
        edges = rng.sample(entangled, rng.randint(2, 6)) + separable
        g = build_graph(dims, [frozenset(e) for e in edges])
        if degree_criterion(g) is None:
            return g


@settings(max_examples=300, deadline=None)
@given(frontier_graphs(), st.integers(0, 2**32 - 1))
@example(MATCHING_2X4, 0)
def test_verdict_invariant_under_relabelling(g, seed):
    # separability survives relabelling the rows, the columns, or swapping
    # the two subsystems, so the verdict must too
    p, q = g.dims
    rng = random.Random(seed)
    rows, cols = rng.sample(range(1, p + 1), p), rng.sample(range(1, q + 1), q)

    def relabelled(f):
        return build_graph(g.dims, [frozenset(map(f, e)) for e in edges_of(g)])

    status = verdict(g).status
    assert verdict(relabelled(lambda v: (rows[v[0] - 1], v[1]))).status == status
    assert verdict(relabelled(lambda v: (v[0], cols[v[1] - 1]))).status == status
    assert verdict(swap_subsystems(g)).status == status


def pt_graph(g):
    """The graph partial transpose: each edge {(i,j),(s,t)} becomes
    {(i,t),(s,j)}, which fixes loops and separable edges.  On a
    degree-preserving graph it is the partial transpose of the state."""
    edges = []
    for e in edges_of(g):
        (i, j), (s, t) = (*e, *e)[:2]  # a loop's vertex twice
        edges.append(frozenset({(i, t), (s, j)}))
    return build_graph(g.dims, edges)


@settings(max_examples=200, deadline=None)
@given(st.one_of(frontier_graphs(), pt_paired_graphs(), random_grid_graphs_with_loops()))
def test_graph_partial_transpose_is_a_checked_symmetry(g):
    # a state and its partial transpose are separable together, so the
    # verdict, its evidence kind and its subsystem order must agree
    h = pt_graph(g)
    assert pt_graph(h) == g
    v, w = verdict(g), verdict(h)
    assert (w.status, type(w.certificate), type(w.witness)) == (
        v.status, type(v.certificate), type(v.witness)
    )
    assert getattr(w.certificate, "swapped", None) == getattr(v.certificate, "swapped", None)
    assert revalidate(g, v) and revalidate(h, w)
    assert (pt_laplacian_entries(g) == laplacian_entries(h)) == (degree_criterion(g) is None)
    # is_psd_integral's precondition on the maps ppt_test and suite 0 hand
    # it: each is symmetric, in range and holds no 0 entry
    for entries in (laplacian_entries(g), pt_laplacian_entries(g)):
        assert SparseSymMatrix(g.n, entries).entries == entries and 0 not in entries.values()
