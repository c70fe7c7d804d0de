import hashlib
import itertools
import json
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import graphsep.graphs
import graphsep.harness
import graphsep.matrix
import graphsep.separability
import pool_reference
from graphsep.errors import BadDimsError, BadParamsError, BadTrialCountError, GraphFileError
from graphsep.graphfile import format_graph
from graphsep.graphs import (
    Dims,
    build_graph,
    complete_graph,
    entangled_edge_pool,
    laplacian_entries,
    pe_matching_graph,
    random_graph,
    separable_edge_pool,
    single_edge_graph,
    star_graph,
)
from graphsep.report import MAX_DENSE_VERTICES, density_eigenvalues
from graphsep.harness import (
    SUITE_DESCRIPTIONS,
    SUITE_IDS,
    TrialFailure,
    _dump_failure,
    run_suite,
    suite_instance,
    trial_seed,
)
from graphsep.matrix import (
    SymMatrix,
    float_definite,
    is_psd_integral,
    partial_transpose_entries,
)
from graphsep.separability import (
    BlockLineSumSymmetric,
    DegreeCriterionWitness,
    ProductDecomposition,
    Status,
    Verdict,
    _block_line_sums_match,
    ppt_test,
    revalidate,
    verdict,
)


def test_trial_seed_frozen_values():
    # first splitmix64 output for state 0 is the published test vector
    assert trial_seed(0, 0) == 0xE220A8397B1DCDAF
    assert trial_seed(0, 1) == 0x6E789E6AA1B965F4
    assert trial_seed(7, 3) == 10753165928301472203
    assert all(0 <= trial_seed(s, i) < 2**64 for s in (0, 1, 2**63) for i in range(4))


def test_trial_seeds_differ_across_trials_and_seeds():
    seeds = {trial_seed(0, i) for i in range(100)}
    assert len(seeds) == 100
    assert trial_seed(1, 0) != trial_seed(2, 0)


def test_suite_ids_and_descriptions():
    assert SUITE_IDS == (0, 1, 2, 4, 5, 7)
    assert set(SUITE_DESCRIPTIONS) == set(SUITE_IDS)


class SelfOrderingInt(int):
    # an int to isinstance, but never below anything
    __lt__ = lambda self, other: False  # noqa: E731


def test_run_suite_validation():
    with pytest.raises(BadParamsError):
        run_suite(3, (2, 2), 10, 0)
    with pytest.raises(BadTrialCountError):
        run_suite(1, (2, 2), 0, 0)
    with pytest.raises(BadTrialCountError):
        run_suite(1, (2, 2), -5, 0)
    with pytest.raises(BadParamsError):
        run_suite(1, (2, 2), 10, -1)
    # a bool is an int, but neither a trial count nor a seed
    with pytest.raises(BadTrialCountError):
        run_suite(1, (2, 2), True, 0)
    with pytest.raises(BadParamsError):
        run_suite(1, (2, 2), 2, True)
    for seed in (1.5, "3"):
        with pytest.raises(BadParamsError):
            run_suite(1, (2, 2), 2, seed)
    with pytest.raises(BadDimsError):
        run_suite(1, (1, 4), 10, 0)
    with pytest.raises(BadDimsError):
        run_suite(2, (2, 2), 10, 0)
    with pytest.raises(BadDimsError):
        run_suite(7, (3, 2), 10, 0)
    with pytest.raises(BadDimsError):
        run_suite(7, (2, 1), 10, 0)
    with pytest.raises(BadDimsError):
        run_suite(0, (1, 1), 10, 0)
    # a dim below 1 leaves suite 0's edge pools empty; (-1, -2) has two
    # vertices by product, and its draw for a nonempty edge set never ended
    for dims in ((-1, -2), (-40, -40), (0, 5)):
        for suite in SUITE_IDS:
            with pytest.raises(BadDimsError, match="must be positive"):
                run_suite(suite, dims, 1, 0)
    # dims must be a pair of ints, and a bool is not one
    for dims in ((2.0, 2), (3, 3.0), (True, 3), (3, False), ("3", 3), (3,), (3, 3, 3), 9):
        with pytest.raises(BadDimsError):
            run_suite(1, dims, 1, 0)
    # nor is an int subclass that orders itself: (-1, -2) of these once
    # passed as dims, suite 5 then reported a false failure, and W(-3)
    # trials ran none and came back ok
    for suite in SUITE_IDS:
        for dims in ((SelfOrderingInt(-1), SelfOrderingInt(-2)), (SelfOrderingInt(3), 3)):
            with pytest.raises(BadDimsError, match="^grid dims must be integers, got "):
                run_suite(suite, dims, 1, 0)
    with pytest.raises(BadTrialCountError):
        run_suite(1, (3, 3), SelfOrderingInt(-3), 0)
    with pytest.raises(BadTrialCountError):
        run_suite(1, (3, 3), SelfOrderingInt(2), 0)
    with pytest.raises(BadParamsError, match="^seed must be"):
        run_suite(1, (3, 3), 1, SelfOrderingInt(0))


def test_suite_instance_reproducible():
    for suite, dims in [(0, (2, 3)), (1, (2, 2)), (2, (3, 3)), (4, (3, 3)), (7, (2, 4))]:
        a = suite_instance(suite, Dims(*dims), 987654321)
        b = suite_instance(suite, Dims(*dims), 987654321)
        assert a == b


def test_random_streams_are_pinned():
    # one SHA-256 over the first trials of every suite id and a few
    # random_graph outputs: an edit to any sampler must keep every draw
    dims_of = {0: (3, 3), 1: (3, 4), 2: (4, 3), 4: (3, 3), 5: (2, 3), 7: (2, 5)}
    h = hashlib.sha256()
    for suite in SUITE_IDS:
        for i in range(4):
            g = suite_instance(suite, Dims(*dims_of[suite]), trial_seed(7, i))
            h.update(format_graph(g).encode())
    for dims, ns, ne, seed in (((3, 3), 4, 2, 1), ((4, 5), 0, 3, 9), ((6, 6), 7, 0, -2),
                               ((2, 9), 3, 3, 2**70)):
        h.update(format_graph(random_graph(Dims(*dims), ns, ne, seed)).encode())
    assert h.hexdigest() == "af950d26869603d0684fbb2dd66ac762c8d4fb3b89216b9eeed8cb59f1d20486"


def test_suite_instance_unknown_id():
    with pytest.raises(BadParamsError):
        suite_instance(6, Dims(2, 2), 0)


def test_suite_id_must_be_exactly_an_int():
    # True and 1.0 are equal to 1 and once ran suite 1, echoing
    # "theorem": true or 1.0 in the report
    for suite in (True, 1.0, "1"):
        with pytest.raises(BadParamsError, match="unknown suite id"):
            run_suite(suite, (3, 3), 1, 0)
        with pytest.raises(BadParamsError, match="unknown suite id"):
            suite_instance(suite, Dims(3, 3), 0)


@pytest.mark.parametrize(
    "suite,dims",
    [
        (0, (2, 2)),
        (0, (3, 3)),
        (1, (2, 2)),
        (1, (3, 3)),
        (2, (2, 3)),
        (2, (3, 3)),
        (4, (3, 3)),
        (5, (2, 2)),
        (5, (3, 3)),
        (7, (2, 2)),
        (7, (2, 4)),
    ],
)
def test_suites_pass_on_small_grids(suite, dims):
    report = run_suite(suite, dims, 25, 11)
    assert report.ok
    assert report.failures == ()
    assert report.trials == 25
    if suite in (1, 2):
        assert report.min_witness_value is not None
        assert report.min_witness_value < 0
    else:
        assert report.min_witness_value is None


def test_suite1_known_min_witness():
    report = run_suite(1, (2, 2), 50, 7)
    assert report.ok
    assert report.min_witness_value == Fraction(-7, 32)


def test_reports_are_deterministic():
    for suite, dims in [(0, (3, 3)), (1, (2, 3)), (7, (2, 4))]:
        a = run_suite(suite, dims, 40, 123).to_json_dict(include_elapsed=False)
        c = run_suite(suite, dims, 40, 123).to_json_dict(include_elapsed=False)
        assert json.dumps(a, sort_keys=True) == json.dumps(c, sort_keys=True)


def test_report_json_keys():
    report = run_suite(1, (2, 2), 5, 0)
    d = report.to_json_dict()
    assert set(d) == {
        "theorem",
        "dims",
        "trials",
        "seed",
        "failures",
        "min_witness_value",
        "elapsed_ms",
    }
    assert d["theorem"] == 1
    assert d["dims"] == [2, 2]
    assert d["trials"] == 5
    assert d["seed"] == 0
    assert d["failures"] == []
    assert isinstance(d["min_witness_value"], str)
    assert isinstance(d["elapsed_ms"], float)
    assert "elapsed_ms" not in report.to_json_dict(include_elapsed=False)
    json.dumps(d)


def test_failure_entries_serialize(monkeypatch):
    import graphsep.harness as harness

    def broken(suite, g):
        return harness._Trial("forced-failure")

    monkeypatch.setattr(harness, "_run_trial", broken)
    report = run_suite(1, (2, 2), 3, 0)
    assert not report.ok
    assert len(report.failures) == 3
    d = report.to_json_dict()
    entry = d["failures"][0]
    assert set(entry) == {"trial", "seed", "reason", "artifact"}
    assert entry["trial"] == 0
    assert entry["seed"] == trial_seed(0, 0)
    assert entry["reason"] == "forced-failure"
    assert entry["artifact"].startswith("dims 2 2\n")


def test_failures_dumped_to_dir(tmp_path, monkeypatch):
    import graphsep.harness as harness

    def broken(suite, g):
        return harness._Trial("forced-failure")

    monkeypatch.setattr(harness, "_run_trial", broken)
    report = run_suite(1, (2, 2), 2, 5, dump_dir=tmp_path / "dumps")
    assert not report.ok
    names = sorted(p.name for p in (tmp_path / "dumps").iterdir())
    assert names == [
        "suite1-p2q2-trial0000.graph",
        "suite1-p2q2-trial0001.graph",
    ]
    # a dump_dir that is a file, or lies under one, cannot hold the dumps:
    # bad input, reported as a failed write is, before any trial runs, so a
    # run that would have no failure is refused too
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    calls = []
    monkeypatch.setattr(harness, "_run_trial", lambda *args: calls.append(args) or broken(*args))
    for dump_dir in (blocker, blocker / "sub"):
        with pytest.raises(GraphFileError, match=f"^cannot write {re.escape(str(dump_dir))}: "):
            run_suite(1, (2, 2), 2, 5, dump_dir=dump_dir)
    assert calls == []
    monkeypatch.undo()
    assert run_suite(1, (2, 2), 3, 0).ok
    with pytest.raises(GraphFileError, match="^cannot write .*: not a directory$"):
        run_suite(1, (2, 2), 3, 0, dump_dir=blocker)
    assert sorted(tmp_path.iterdir()) == [blocker, tmp_path / "dumps"]
    # a directory that passes that check can still fail to be made, when the
    # first trial fails: a failed write too (mkdir is patched, since a chmod
    # does not stop a superuser)
    def denied(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(harness, "_run_trial", broken)
    monkeypatch.setattr(Path, "mkdir", denied)
    dump_dir = tmp_path / "denied"
    message = f"^cannot write {re.escape(str(dump_dir))}: \\[Errno 13\\] Permission denied$"
    with pytest.raises(GraphFileError, match=message):
        run_suite(1, (2, 2), 2, 5, dump_dir=dump_dir)
    assert not dump_dir.exists()


def test_no_dump_dir_created_when_clean(tmp_path):
    report = run_suite(1, (2, 2), 3, 0, dump_dir=tmp_path / "dumps")
    assert report.ok
    assert not (tmp_path / "dumps").exists()


def test_dump_failure_helper(tmp_path):
    path = _dump_failure(tmp_path, 7, Dims(2, 3), 12, star_graph(Dims(2, 3)))
    assert path.name == "suite7-p2q3-trial0012.graph"
    assert path.read_text().startswith("dims 2 3\n")


def test_unknown_count_tracked_but_not_serialized():
    report = run_suite(0, (3, 3), 30, 2)
    assert report.unknown_count >= 0
    assert "unknown_count" not in report.to_json_dict()


@pytest.mark.parametrize("dims", [(4, 2), (5, 2)])
def test_suite0_decides_every_two_column_grid(dims):
    # suite 0 fails any UNKNOWN verdict on a grid with a side of 2
    report = run_suite(0, dims, 300, 1)
    assert report.ok
    assert report.unknown_count == 0


def test_suite0_fails_unknown_on_two_column_grid(monkeypatch):
    # with the block check held to the subsystem order as given, some 4x2
    # graphs go unknown, and suite 0 reports each of them
    real = _block_line_sums_match
    monkeypatch.setattr(
        graphsep.separability,
        "_block_line_sums_match",
        lambda g, swapped: not swapped and real(g, False),
    )
    report = run_suite(0, (4, 2), 300, 1)
    assert report.unknown_count == 3
    assert [f.reason for f in report.failures] == ["small-grid-verdict-unknown"] * 3


def _suite0_instances():
    """Seeded suite-0 instances, mostly not PPT, then PPT ones: complete
    graphs up to one 256-vertex block, and perfect entangled matchings alone
    and with suite 7's separable edges."""
    for p, q in [(3, 3), (4, 4), (5, 5), (2, 3), (2, 6), (2, 9)]:
        for i in range(10):
            yield suite_instance(0, Dims(p, q), trial_seed(1, i))
    for p, q in [(2, 2), (3, 3), (4, 5), (16, 16)]:
        yield complete_graph(Dims(p, q))
    yield pe_matching_graph(Dims(2, 3), [2, 3, 1])
    yield pe_matching_graph(Dims(2, 6), [2, 1, 4, 3, 6, 5])
    for q in (3, 5, 8):
        for i in range(3):
            yield suite_instance(7, Dims(2, q), trial_seed(1, i))


def test_suite0_shifted_cholesky_matches_the_least_eigenvalue():
    # suite 0 files its float cross-check when the shifted Cholesky answers
    # other than the exact test; the least eigenvalue of the QL spectrum
    # stays the reference, filing when |least| > 1e-11 and its sign
    # disagrees.  A PPT partial transpose keeps every degree, so its rows
    # sum to 0 and its least eigenvalue is 0: definite at +1e-11 only.  A
    # negative one is far below -1e-11 here: definite at neither shift
    ppt_count = Counter()
    for g in _suite0_instances():
        pt = partial_transpose_entries(laplacian_entries(g), g.dims)
        ppt = is_psd_integral(pt)
        least = density_eigenvalues(pt, g)[0]
        density = {k: x / g.degree_sum for k, x in pt.items()}
        definite = {s: float_definite(density, g.n, s) for s in (1e-11, -1e-11)}
        # suite 0 asks it of the integer map, the shift times degree_sum
        scaled = {s: float_definite(pt, g.n, s * g.degree_sum) for s in (1e-11, -1e-11)}
        assert scaled == definite, format_graph(g)
        old = abs(least) > 1e-11 and (least < 0) == ppt
        assert (definite[1e-11 if ppt else -1e-11] != ppt) == old, format_graph(g)
        assert definite == {1e-11: ppt, -1e-11: False}, format_graph(g)
        ppt_count[ppt] += 1
    assert ppt_count[True] >= 15 and ppt_count[False] >= 40, ppt_count


def test_suite0_asks_its_float_question_of_the_integer_map(monkeypatch):
    # suite 0 hands float_definite the integer partial transpose and the
    # shift 1e-11 times degree_sum, its trace: no density map is built
    calls = []

    def spy(entries, n, shift):
        calls.append((entries, shift))
        return float_definite(entries, n, shift)

    monkeypatch.setattr(graphsep.harness, "float_definite", spy)
    assert run_suite(0, (3, 3), 10, 1).ok
    assert len(calls) == 10
    for entries, shift in calls:
        assert all(type(x) is int for x in entries.values())
        trace = sum(x for (r, c), x in entries.items() if r == c)
        assert abs(shift) == 1e-11 * trace


def test_suite7_fails_when_revalidation_fails(monkeypatch):
    # suite 7 re-derives each verdict's block certificate from the graph
    monkeypatch.setattr(graphsep.harness, "revalidate", lambda g, v: False)
    report = run_suite(7, (2, 4), 5, 3)
    assert [f.reason for f in report.failures] == ["revalidation-failed"] * 5


def _on_call(k, fake, real):
    """real, except on its k-th call (1-based), which fake answers."""
    calls = itertools.count(1)
    return lambda *args: fake(*args) if next(calls) == k else real(*args)


def _unknown(g):
    return Verdict(Status.UNKNOWN)


def _pt_negating_diagonal(entries, dims):
    # still an involution, but the trace changes sign
    pt = partial_transpose_entries(entries, dims)
    return {(r, c): -x if r == c else x for (r, c), x in pt.items()}


def _pt_reversing_diagonal(entries, dims):
    # still an involution that keeps the trace, but not the diagonal
    last = dims[0] * dims[1] - 1
    pt = partial_transpose_entries(entries, dims)
    return {(last - r, last - r) if r == c else (r, c): x for (r, c), x in pt.items()}


# (suite, reason, the harness name patched, its fake made from the real
# one).  Each row runs one trial at seed 1 on 3x3, on 2x5 for suite 7 and on
# 2x3 for small-grid-verdict-unknown; suite 0's 3x3 instance is entangled,
# so its partial transpose is not positive.
SUITE_REASONS = [
    (1, "partial-transpose-stayed-positive", "ppt_test", lambda real: lambda g: True),
    (1, "witness-value-not-negative", "witness_value", lambda real: lambda g, w: Fraction(0)),
    (1, "verdict-not-entangled", "verdict", lambda real: _unknown),
    (2, "verdict-not-entangled", "verdict", lambda real: _unknown),
    (2, "witness-value-not-negative", "witness_value", lambda real: lambda g, w: Fraction(0)),
    (4, "block-certificate-missing", "block_lss_certificate", lambda real: lambda g: None),
    (4, "partial-transpose-not-positive", "ppt_test", lambda real: lambda g: False),
    (4, "verdict-not-separable-by-blocks", "verdict", lambda real: _unknown),
    (5, "complete-not-separable-by-blocks", "verdict", lambda real: _unknown),
    (5, "complete-not-fixed-by-partial-transpose", "partial_transpose_entries",
     lambda real: lambda entries, dims: {}),
    (5, "star-not-entangled", "verdict", lambda real: _on_call(2, _unknown, real)),
    (5, "star-degree-witness-wrong-row", "verdict", lambda real: _on_call(
        2, lambda g: Verdict(Status.ENTANGLED, witness=DegreeCriterionWitness(1, -1)), real)),
    (7, "matching-certificate-missing", "pe_matching_certificate", lambda real: lambda g: None),
    (7, "verdict-not-separable-by-blocks", "verdict", lambda real: _unknown),
    (7, "revalidation-failed", "revalidate", lambda real: lambda g, v: False),
    (7, "partial-transpose-not-positive", "ppt_test", lambda real: lambda g: False),
    (0, "density-not-uniform-edge-mixture", "_uniform_edge_mixture", lambda real: lambda g: {}),
    (0, "partial-transpose-not-involutive", "partial_transpose_entries",
     lambda real: _on_call(2, lambda entries, dims: {}, real)),
    (0, "partial-transpose-changed-trace", "partial_transpose_entries",
     lambda real: _pt_negating_diagonal),
    (0, "partial-transpose-changed-diagonal", "partial_transpose_entries",
     lambda real: _pt_reversing_diagonal),
    (0, "laplacian-not-psd", "is_psd_integral", lambda real: lambda entries: False),
    (0, "eigenvalue-sign-disagrees-with-exact-test", "float_definite",
     lambda real: lambda entries, n, shift: not real(entries, n, shift)),
    (0, "certificate-granted-despite-negative-partial-transpose", "block_lss_certificate",
     lambda real: lambda g: BlockLineSumSymmetric()),
    (0, "degree-and-positivity-tests-disagree", "degree_criterion", lambda real: lambda g: None),
    (0, "small-grid-verdict-unknown", "verdict", lambda real: _unknown),
    (0, "revalidation-failed", "revalidate", lambda real: lambda g, v: False),
]


@pytest.mark.parametrize(
    "suite, reason, name, make_fake",
    SUITE_REASONS,
    ids=[f"{suite}-{reason}" for suite, reason, *_ in SUITE_REASONS],
)
def test_every_suite_failure_reason_fires(monkeypatch, suite, reason, name, make_fake):
    # one collaborator misbehaves, and exactly its check files the trial,
    # on the instance or, for suite 5's star checks, on the star
    dims = Dims(2, 5) if suite == 7 else Dims(2 if reason.startswith("small-") else 3, 3)
    assert run_suite(suite, dims, 1, 1).ok
    monkeypatch.setattr(graphsep.harness, name, make_fake(getattr(graphsep.harness, name)))
    tseed = trial_seed(1, 0)
    g = star_graph(dims) if reason.startswith("star-") else suite_instance(suite, dims, tseed)
    assert run_suite(suite, dims, 1, 1).failures == (TrialFailure(0, tseed, reason, g),)


def test_suites_build_no_dense_matrix(monkeypatch):
    # every reference check runs on integer entry maps
    def dense(*args):
        raise AssertionError("dense matrix built")

    monkeypatch.setattr(SymMatrix, "__post_init__", dense)
    for name in ("laplacian", "density_matrix"):
        monkeypatch.setattr(graphsep.graphs, name, dense)
    for suite in SUITE_IDS:
        dims = (2, 4) if suite == 7 else (3, 3)
        assert run_suite(suite, dims, 20, 5).ok, suite


def test_suites_run_no_ql(monkeypatch):
    # so verify cannot meet QL's NoConvergenceError: suite 0's float
    # cross-check is a shifted Cholesky, and no suite takes a spectrum
    def ql(*args):
        raise AssertionError("Householder reduction or QL reached")

    for name in ("_tridiagonal", "_ql"):
        monkeypatch.setattr(graphsep.matrix, name, ql)
    for suite in SUITE_IDS:
        dims = (2, 4) if suite == 7 else (3, 3)
        assert run_suite(suite, dims, 20, 5).ok, suite


def test_suite_dims_stop_at_the_report_bound(monkeypatch):
    # refused before any edge is drawn or instance built: a 1000x1000 suite 0
    # would otherwise sample from about 10^9 separable edges
    def build(*args):
        raise AssertionError("suite instance built")

    for name in ("_draw_edges", "complete_graph"):
        monkeypatch.setattr(graphsep.harness, name, build)
    assert 33 * 32 > MAX_DENSE_VERTICES == 32 * 32
    for suite in SUITE_IDS:
        with pytest.raises(BadDimsError, match=str(MAX_DENSE_VERTICES)):
            run_suite(suite, (33, 32), 1, 0)
    for suite in (0, 1, 2, 4, 5):
        with pytest.raises(AssertionError, match="suite instance built"):
            suite_instance(suite, Dims(32, 32), 0)
    with pytest.raises(AssertionError, match="suite instance built"):
        suite_instance(7, Dims(2, MAX_DENSE_VERTICES // 2), 0)
    with pytest.raises(BadDimsError):
        suite_instance(7, Dims(2, MAX_DENSE_VERTICES // 2 + 1), 0)


def test_suite_instance_refuses_what_run_suite_refuses(monkeypatch):
    # suite_instance is public: it applies every suite's dims rule itself,
    # before any edge is drawn or graph is built
    def build(*args):
        raise AssertionError("suite instance built")

    for name in ("_draw_edges", "complete_graph"):
        monkeypatch.setattr(graphsep.harness, name, build)
    cases = [(0, (1, 1)), (0, (-1, -2)), (1, (1, 4)), (2, (2, 2)), (4, (1, 3)),
             (5, (33, 32)), (7, (3, 2))]
    for suite, dims in cases:
        with pytest.raises(BadDimsError) as refused:
            suite_instance(suite, Dims(*dims), 0)
        with pytest.raises(BadDimsError) as run_refused:
            run_suite(suite, dims, 1, 0)
        assert str(refused.value) == str(run_refused.value)


def test_suite1_draws_its_entangled_edge_by_index(monkeypatch):
    # the edge a suite 1 trial on the largest grid draws from the listed pool
    dims = Dims(32, 32)
    sep_pool = pool_reference.separable_pool(dims)
    ent_pool = pool_reference.entangled_pool(dims)
    seeds = [trial_seed(4, i) for i in range(2)]
    expected = []
    for tseed in seeds:
        rng = random.Random(tseed)
        edges = rng.sample(sep_pool, rng.randint(0, len(sep_pool)))
        edges.append(rng.choice(ent_pool))
        expected.append(build_graph(dims, [frozenset(e) for e in edges]))

    def refuse(dims):
        raise AssertionError("entangled pool listed")

    monkeypatch.setattr(graphsep.graphs, "entangled_edge_pool", refuse)
    assert [suite_instance(1, dims, tseed) for tseed in seeds] == expected


def test_no_suite_lists_the_entangled_pool(monkeypatch):
    # every suite and random_graph draw their edges by index, through
    # _draw_edges; both pools are refused in every graphsep module that
    # binds them
    def refuse(dims):
        raise AssertionError("pool listed")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "graphsep":
            for pool in (separable_edge_pool, entangled_edge_pool):
                if getattr(module, pool.__name__, None) is pool:
                    monkeypatch.setattr(module, pool.__name__, refuse)
    for suite in SUITE_IDS:
        assert run_suite(suite, (2, 5) if suite == 7 else (4, 4), 10, 0).ok, suite
    assert len(random_graph(Dims(4, 4), 3, 2, 0).sorted_edges) == 5


def test_suite5_files_a_star_failure_on_the_star(tmp_path, monkeypatch):
    # a single edge in place of the star has a degree witness on another row
    # (q = 2 would put it on the star's row), so its check fails, and the
    # failure carries that graph, not the complete instance
    def not_a_star(dims):
        return single_edge_graph(dims, {(1, 1), (dims.p, dims.q)})

    monkeypatch.setattr(graphsep.harness, "star_graph", not_a_star)
    report = run_suite(5, (3, 3), 2, 0, dump_dir=tmp_path)
    edge = single_edge_graph(Dims(3, 3), {(1, 1), (3, 3)})
    assert [f.reason for f in report.failures] == ["star-degree-witness-wrong-row"] * 2
    assert [f.artifact for f in report.failures] == [edge, edge]
    dumped = (tmp_path / "suite5-p3q3-trial0000.graph").read_text()
    assert dumped == format_graph(edge)


def test_graphsep_matrices_need_no_elimination(monkeypatch):
    # every matrix graphsep tests for PSD has no positive off-diagonal entry,
    # so is_psd_integral decides it by row sums: either all are >= 0, or
    # they total 0 and one is not 0
    def eliminate(a):
        raise AssertionError("Bareiss elimination reached")

    monkeypatch.setattr(graphsep.matrix, "_bareiss_psd", eliminate)
    rng = random.Random(5)
    for p in range(2, 9):
        for q in range(2, 9):
            dims = Dims(p, q)
            assert ppt_test(complete_graph(dims))
            assert not ppt_test(star_graph(dims))
            assert not ppt_test(single_edge_graph(dims, {(1, 1), (p, q)}))
            # entangled edges with their partial-transpose images keep degrees
            edges = set(rng.sample(separable_edge_pool(dims), 2))
            pool = entangled_edge_pool(dims)
            for (i, j), (s, t) in rng.sample(pool, min(3, len(pool))):
                edges |= {((i, j), (s, t)), ((i, t), (s, j))}
            assert ppt_test(build_graph(dims, [frozenset(e) for e in edges]))
            g = random_graph(dims, 4, 0, rng.getrandbits(32))
            v = verdict(g)
            assert isinstance(v.certificate, ProductDecomposition)
            assert revalidate(g, v)
    for suite in SUITE_IDS:
        assert run_suite(suite, (2, 6) if suite == 7 else (4, 4), 1, 3).ok, suite
    # separable edges join this partial transpose into one 400-row block
    assert run_suite(1, (20, 20), 1, 0).ok
