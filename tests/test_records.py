"""graphsep's records: fixed once built, equal only within their exact class,
and defined without the dataclasses module, so start-up stays short."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from graph_edges import edges_of
import graphsep
from graphsep.graphs import Dims, Graph, complete_graph, single_edge_graph, star_graph
from graphsep.harness import TrialFailure, run_suite
from graphsep.matrix import SparseSymMatrix, SymMatrix
from graphsep.report import analyze
from graphsep.separability import (
    BlockLineSumSymmetric,
    DegreeCriterionWitness,
    ProductDecomposition,
    Status,
    Verdict,
    revalidate,
    verdict,
)


def _bare_python(code):
    """stdout of code run by a fresh interpreter under -S, which keeps
    site's imports out, with only graphsep's source on the path."""
    src = str(Path(graphsep.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_start_up_loads_no_dataclasses():
    # dataclasses imports inspect, and with it ast, dis and tokenize, which
    # nothing else graphsep loads needs
    code = (
        "import sys, graphsep, graphsep.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    assert _bare_python(code) == "[]\n"


def test_start_up_loads_no_suites():
    # analyze, spectrum and generate run no suite, so neither harness.py nor
    # the pathlib and random it imports load until a suite name is read;
    # the package reads each name from harness and keeps none of them
    code = """
import sys, graphsep, graphsep.cli
print(sorted({"graphsep.harness", "pathlib", "random"} & set(sys.modules)))
import graphsep.harness
names = ("SUITE_DESCRIPTIONS", "SUITE_IDS", "SuiteReport", "TrialFailure",
         "run_suite", "suite_instance", "trial_seed")
print([n for n in names if getattr(graphsep, n) is not getattr(graphsep.harness, n)])
print(sorted(set(names) & set(vars(graphsep))))
try:
    graphsep.no_such_name
except AttributeError as exc:
    print(exc)
"""
    assert _bare_python(code) == (
        "[]\n[]\n[]\nmodule 'graphsep' has no attribute 'no_such_name'\n"
    )


def _records():
    star = star_graph(Dims(2, 3))
    all_separable = Graph(Dims(2, 2), frozenset({frozenset({(1, 1), (1, 2)})}))
    return [
        star,
        SymMatrix(((1, 0), (0, 1))),
        SparseSymMatrix(2, {(0, 1): 1, (1, 0): 1}),
        verdict(star),
        verdict(star).witness,
        verdict(complete_graph(Dims(2, 2))).certificate,
        verdict(all_separable).certificate,
        analyze(star),
        run_suite(1, (2, 2), 1, 0),
        TrialFailure(0, 1, "reason", star),
    ]


def test_records_refuse_assignment_and_deletion():
    records = _records()
    kinds = {type(r) for r in records}
    assert {ProductDecomposition, BlockLineSumSymmetric, DegreeCriterionWitness} <= kinds
    for record in records:
        for name in (*type(record)._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
    # a Graph's fields are all it holds, so the loop above refused each
    assert Graph._fields == ("dims", "sorted_edges", "loops")


def test_matrices_and_graphs_equal_only_within_their_exact_class():
    g = Graph(Dims(2, 3), [*star_graph(Dims(2, 3)).sorted_edges, [(2, 3)]])
    held = (g.dims, g.sorted_edges, g.loops)
    assert repr(g) == "Graph(dims={!r}, sorted_edges={!r}, loops={!r})".format(*held)
    rows = ((1, 0), (0, 1))
    entries = {(0, 1): 1, (1, 0): 1}
    cases = (
        (Graph, (g.dims, edges_of(g)), hash(held)),
        (SymMatrix, (rows,), hash((rows,))),
        (SparseSymMatrix, (2, entries), hash((2,))),
    )
    for cls, args, expected_hash in cases:
        sub = type("Sub", (cls,), {})
        a, b, c = cls(*args), cls(*args), sub(*args)
        assert a == b and hash(a) == hash(b) == expected_hash
        assert a != c and c != a
        assert hash(a) == hash(c)


def test_sparse_matrices_of_one_order_hash_equal():
    a = SparseSymMatrix(2, {(0, 0): 1})
    b = SparseSymMatrix(2, {(1, 1): 1})
    assert hash(a) == hash(b)
    assert a != b
    assert a == SparseSymMatrix(2, {(0, 0): 1})


def test_revalidate_refuses_plain_tuples_equal_to_honest_evidence():
    # the records are NamedTuples, so a plain tuple of the same values
    # compares equal to one; revalidate still takes only the exact classes
    crossed = single_edge_graph(Dims(2, 2), {(1, 1), (2, 2)})
    honest = DegreeCriterionWitness(3, -1)
    assert verdict(crossed) == Verdict(Status.ENTANGLED, witness=honest)
    assert revalidate(crossed, Verdict(Status.ENTANGLED, witness=honest))
    assert (3, -1) == honest
    assert not revalidate(crossed, Verdict(Status.ENTANGLED, witness=(3, -1)))

    k4 = complete_graph(Dims(2, 2))
    blocks = BlockLineSumSymmetric()
    assert revalidate(k4, Verdict(Status.SEPARABLE, certificate=blocks))
    assert (False,) == blocks
    assert not revalidate(k4, Verdict(Status.SEPARABLE, certificate=(False,)))

    row = Graph(Dims(2, 2), frozenset({frozenset({(1, 1), (1, 2)})}))
    mixture = verdict(row).certificate
    assert type(mixture) is ProductDecomposition
    assert revalidate(row, Verdict(Status.SEPARABLE, certificate=mixture))
    assert (mixture.terms,) == mixture
    forged = (mixture.terms,)
    assert not revalidate(row, Verdict(Status.SEPARABLE, certificate=forged))
