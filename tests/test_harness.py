import json
from fractions import Fraction

import pytest

from graphsep.errors import BadDimsError, BadParamsError, BadTrialCountError
from graphsep.graphs import Dims, star_graph
from graphsep.harness import (
    SUITE_DESCRIPTIONS,
    SUITE_IDS,
    _dump_failure,
    run_suite,
    suite_instance,
    trial_seed,
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


def test_run_suite_validation():
    with pytest.raises(BadParamsError):
        run_suite(3, (2, 2), 10, 0)
    with pytest.raises(BadTrialCountError):
        run_suite(1, (2, 2), 0, 0)
    with pytest.raises(BadTrialCountError):
        run_suite(1, (2, 2), -5, 0)
    with pytest.raises(BadParamsError):
        run_suite(1, (2, 2), 10, -1)
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


def test_suite_instance_reproducible():
    for suite, dims in [(0, (2, 3)), (1, (2, 2)), (2, (3, 3)), (4, (3, 3)), (7, (2, 4))]:
        a = suite_instance(suite, Dims(*dims), 987654321)
        b = suite_instance(suite, Dims(*dims), 987654321)
        assert a == b


def test_suite_instance_unknown_id():
    with pytest.raises(BadParamsError):
        suite_instance(6, Dims(2, 2), 0)


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

    def broken(suite, dims, tseed):
        g = suite_instance(suite, dims, tseed)
        return "forced-failure", None, g, False

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

    def broken(suite, dims, tseed):
        g = suite_instance(suite, dims, tseed)
        return "forced-failure", None, g, False

    monkeypatch.setattr(harness, "_run_trial", broken)
    report = run_suite(1, (2, 2), 2, 5, dump_dir=tmp_path / "dumps")
    assert not report.ok
    names = sorted(p.name for p in (tmp_path / "dumps").iterdir())
    assert names == [
        "suite1-p2q2-trial0000.graph",
        "suite1-p2q2-trial0001.graph",
    ]


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
