import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphsep.report
from graphsep.cli import main
from graphsep.errors import NoConvergenceError
from graphsep.graphfile import parse_graph_file
from graphsep.graphs import Dims, complete_graph, pe_matching_graph, star_graph
from graphsep.graphfile import write_graph_file
from graphsep.separability import Status, revalidate, verdict


@pytest.fixture
def star_file(tmp_path):
    path = tmp_path / "star.graph"
    write_graph_file(path, star_graph(Dims(2, 2)))
    return str(path)


def test_analyze_text(star_file, capsys):
    assert main(["analyze", star_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("verdict: entangled\n")
    assert "witness: degree change at row 3, sum -1" in out
    assert "dims: 2x2 (4 vertices)" in out


def test_analyze_json(star_file, capsys):
    assert main(["analyze", star_file, "--format", "json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["verdict"] == "entangled"
    assert d["witness"] == {"kind": "degree-criterion", "row": 3, "row_sum": "-1"}
    assert d["certificate"] is None
    assert d["dims"] == [2, 2]
    assert d["purity"] == "1/2"
    assert d["ppt"]["holds"] is False
    assert d["degree_criterion"] == {"holds": False, "violating_row": 3, "row_sum": "-1"}
    assert d["certificates"] == []
    assert "spectrum" not in d


def test_analyze_with_spectrum(star_file, capsys):
    assert main(["analyze", star_file, "--format", "json", "--spectrum"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert len(d["spectrum"]["density"]) == 4
    assert len(d["spectrum"]["partial_transpose"]) == 4
    assert d["spectrum"]["partial_transpose"][0] < 0


def test_analyze_missing_file(capsys):
    assert main(["analyze", "/no/such/file"]) == 1
    assert "error:" in capsys.readouterr().err


def test_analyze_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.graph"
    path.write_text("dims 2 2\nedge 1 1 9 9\n")
    assert main(["analyze", str(path)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_generate_complete_round_trip(tmp_path):
    out = tmp_path / "k.graph"
    assert main(["generate", "complete", "--p", "2", "--q", "2", "--out", str(out)]) == 0
    g = parse_graph_file(out)
    assert len(g.sorted_edges) == 6


def test_generate_star_to_stdout(capsys):
    assert main(["generate", "star", "--p", "2", "--q", "3"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("dims 2 3\n")
    assert out.count("edge ") == 5


def test_generate_n_cross_check(capsys):
    assert main(["generate", "complete", "--p", "2", "--q", "2", "--n", "5"]) == 1
    assert "does not match" in capsys.readouterr().err
    assert main(["generate", "complete", "--p", "2", "--q", "2", "--n", "4"]) == 0


def test_generate_single_edge(capsys):
    args = ["generate", "single-edge", "--p", "2", "--q", "2", "--edge", "1", "1", "2", "2"]
    assert main(args) == 0
    assert capsys.readouterr().out == "dims 2 2\nedge 1 1 2 2\n"
    bad = ["generate", "single-edge", "--p", "2", "--q", "2", "--edge", "1", "1", "1", "2"]
    assert main(bad) == 1


def test_generate_pe_matching(capsys):
    assert main(["generate", "pe-matching", "--q", "3", "--pi", "2,3,1"]) == 0
    out = capsys.readouterr().out
    assert out == "dims 2 3\nedge 1 1 2 2\nedge 1 2 2 3\nedge 1 3 2 1\n"
    assert main(["generate", "pe-matching", "--q", "3", "--pi", "1,2,3"]) == 1
    assert main(["generate", "pe-matching", "--q", "3", "--pi", "a,b,c"]) == 1
    assert main(["generate", "pe-matching", "--p", "3", "--q", "3", "--pi", "2,3,1"]) == 1


def test_generate_random_deterministic(capsys):
    args = ["generate", "random", "--p", "3", "--q", "3", "--separable", "2",
            "--entangled", "2", "--seed", "9"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert first.count("edge ") == 4


def test_generate_random_empty_rejected(capsys):
    assert main(["generate", "random", "--p", "2", "--q", "2"]) == 1


def test_verify_ok_json(capsys, tmp_path):
    args = ["verify", "--theorem", "1", "--p", "2", "--q", "2", "--trials", "20",
            "--seed", "7", "--dump-dir", str(tmp_path / "d")]
    assert main(args) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["theorem"] == 1
    assert d["failures"] == []
    assert d["min_witness_value"] == "-7/32"
    assert not (tmp_path / "d").exists()


def test_verify_cross_consistency_suite(capsys, tmp_path):
    args = ["verify", "--theorem", "0", "--p", "2", "--q", "3", "--trials", "15",
            "--seed", "0", "--dump-dir", str(tmp_path / "d")]
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["theorem"] == 0


def test_verify_bad_dims_exit_1(capsys, tmp_path):
    args = ["verify", "--theorem", "7", "--p", "3", "--q", "2",
            "--dump-dir", str(tmp_path / "d")]
    assert main(args) == 1
    assert "needs a 2xQ grid" in capsys.readouterr().err


def test_verify_unknown_suite_exit_1(capsys, tmp_path):
    args = ["verify", "--theorem", "3", "--p", "2", "--q", "2",
            "--dump-dir", str(tmp_path / "d")]
    assert main(args) == 1
    assert "unknown suite id 3" in capsys.readouterr().err


def test_verify_bad_trials_exit_1(tmp_path):
    args = ["verify", "--theorem", "1", "--p", "2", "--q", "2", "--trials", "0",
            "--dump-dir", str(tmp_path / "d")]
    assert main(args) == 1


def test_verify_failure_exit_3(capsys, tmp_path, monkeypatch):
    import graphsep.harness as harness
    from graphsep.harness import suite_instance

    def broken(suite, dims, tseed):
        return "forced-failure", None, suite_instance(suite, dims, tseed), False

    monkeypatch.setattr(harness, "_run_trial", broken)
    args = ["verify", "--theorem", "1", "--p", "2", "--q", "2", "--trials", "2",
            "--seed", "0", "--dump-dir", str(tmp_path / "d")]
    assert main(args) == 3
    d = json.loads(capsys.readouterr().out)
    assert len(d["failures"]) == 2
    assert (tmp_path / "d" / "suite1-p2q2-trial0000.graph").exists()


def test_spectrum_text(star_file, capsys):
    assert main(["spectrum", star_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("density spectrum: ")
    assert "partial transpose spectrum: " in out


def test_spectrum_json(star_file, capsys):
    assert main(["spectrum", star_file, "--format", "json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert set(d) == {"density", "partial_transpose"}
    assert len(d["density"]) == 4
    assert d["density"] == sorted(d["density"])


def test_usage_errors_exit_1():
    assert main([]) == 1
    assert main(["analyze"]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["generate"]) == 1


def test_help_exits_0():
    assert main(["--help"]) == 0
    assert main(["verify", "--help"]) == 0


def test_non_convergence_is_internal_error(tmp_path, monkeypatch, capsys):
    def no_convergence(*args, **kwargs):
        raise NoConvergenceError("jacobi stopped")

    # every binding, so a Jacobi call anywhere on the verdict path would raise
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "graphsep" and hasattr(module, "eigenvalues_sym"):
            monkeypatch.setattr(module, "eigenvalues_sym", no_convergence)
    assert graphsep.report.eigenvalues_sym is no_convergence
    cases = [
        (star_graph(Dims(3, 3)), Status.ENTANGLED),
        (complete_graph(Dims(3, 3)), Status.SEPARABLE),
        (pe_matching_graph(Dims(2, 3), (2, 3, 1)), Status.SEPARABLE),
    ]
    for g, status in cases:
        v = verdict(g)
        assert v.status == status
        assert revalidate(g, v)
    path = tmp_path / "k.graph"
    write_graph_file(path, complete_graph(Dims(2, 2)))
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err.startswith("internal error: jacobi stopped")


def test_module_entry_point():
    src = str(Path(graphsep.report.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "graphsep.cli", "generate", "star", "--p", "2", "--q", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "dims 2 2"
