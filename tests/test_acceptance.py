"""End-to-end acceptance checks, one per shipped guarantee.

Run `pytest tests/test_acceptance.py -v -s` to see one PASS or FAIL line
per criterion.
"""

import functools
import json
from fractions import Fraction

from graphsep.cli import main
from graphsep.graphs import (
    Dims,
    build_graph,
    complete_graph,
    density_matrix,
    laplacian,
    separable_edge_pool,
    single_edge_graph,
    star_graph,
)
from graphsep.harness import run_suite
from graphsep.matrix import partial_transpose, purity
from graphsep.separability import (
    BlockLineSumSymmetric,
    DegreeCriterionWitness,
    Status,
    quadratic_witness,
    revalidate,
    verdict,
)

FACTORIZATIONS = [Dims(2, 2), Dims(2, 3), Dims(3, 2), Dims(2, 4), Dims(4, 2), Dims(3, 3)]


def criterion(num, desc):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {num}] FAIL: {desc}")
                raise
            print(f"\n[criterion {num}] PASS: {desc}")

        return inner

    return wrap


@criterion(1, "complete graphs are separable with a block certificate on every grid")
def test_criterion_1_complete_graphs():
    for dims in FACTORIZATIONS:
        g = complete_graph(dims)
        v = verdict(g)
        assert v.status == Status.SEPARABLE, dims
        assert isinstance(v.certificate, BlockLineSumSymmetric), dims
        assert revalidate(g, v), dims
        lap = laplacian(g)
        assert partial_transpose(lap, dims) == lap, dims


@criterion(2, "stars are entangled with the exact degree witness on every grid")
def test_criterion_2_star_graphs():
    for dims in FACTORIZATIONS:
        g = star_graph(dims)
        v = verdict(g)
        assert v.status == Status.ENTANGLED, dims
        assert isinstance(v.witness, DegreeCriterionWitness), dims
        assert v.witness.row == (dims.p - 1) * dims.q + 1, dims
        assert v.witness.row_sum == -(dims.q - 1), dims
        assert revalidate(g, v), dims


@criterion(3, "suite 1: a lone entangled edge is always caught, witness negative")
def test_criterion_3_single_entangled_edge_suite():
    e = frozenset({(1, 1), (2, 2)})
    lone = single_edge_graph(Dims(2, 2), e)
    assert quadratic_witness(lone, e).value == Fraction(-7, 32)
    sep = [frozenset(pr) for pr in separable_edge_pool(Dims(2, 2))]
    full = build_graph(Dims(2, 2), sep + [e])
    assert quadratic_witness(full, e).value == Fraction(-5, 32)
    for dims in [(2, 2), (2, 3), (3, 3)]:
        report = run_suite(1, dims, 100, 0)
        assert report.ok, (dims, report.failures[:3])
        assert report.min_witness_value is not None and report.min_witness_value < 0


@criterion(4, "suite 2: entangled edges sharing a vertex are always caught")
def test_criterion_4_shared_vertex_suite():
    for dims in [(2, 3), (3, 2), (3, 3)]:
        report = run_suite(2, dims, 100, 0)
        assert report.ok, (dims, report.failures[:3])
        assert report.min_witness_value is not None and report.min_witness_value < 0


@criterion(5, "suite 4: tensor products of separable factors verify separable")
def test_criterion_5_tensor_product_suite():
    report = run_suite(4, (4, 4), 50, 0)
    assert report.ok, report.failures[:3]


@criterion(6, "suite 7: perfect entangled matchings verify separable for q up to 6")
def test_criterion_6_matching_suite():
    for q in range(2, 7):
        report = run_suite(7, (2, q), 50, 0)
        assert report.ok, (q, report.failures[:3])


@criterion(7, "suite 0: structural invariants and criterion agreement hold")
def test_criterion_7_cross_consistency_suite():
    assert purity(density_matrix(single_edge_graph(Dims(2, 2), {(1, 1), (2, 2)}))) == 1
    assert purity(density_matrix(complete_graph(Dims(2, 2)))) == Fraction(1, 3)
    for dims in [(2, 2), (2, 3), (3, 3)]:
        report = run_suite(0, dims, 200, 0)
        assert report.ok, (dims, report.failures[:3])


@criterion(8, "reports are reproducible across reruns, workers, and the CLI")
def test_criterion_8_determinism(capsys, tmp_path):
    for suite, dims in [(0, (3, 3)), (1, (2, 3)), (7, (2, 4))]:
        a = run_suite(suite, dims, 50, 42).to_json_dict(include_elapsed=False)
        c = run_suite(suite, dims, 50, 42).to_json_dict(include_elapsed=False)
        assert json.dumps(a, sort_keys=True) == json.dumps(c, sort_keys=True)
    args = ["verify", "--theorem", "1", "--p", "2", "--q", "2", "--trials", "30",
            "--seed", "5", "--dump-dir", str(tmp_path / "d")]
    assert main(args) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(args) == 0
    second = json.loads(capsys.readouterr().out)
    first.pop("elapsed_ms")
    second.pop("elapsed_ms")
    assert first == second
