import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import graphsep.cli
import graphsep.matrix
import graphsep.report
from graphsep.cli import main
from graphsep.report import analyze
from graphsep.errors import BadDimsError, GraphSepError, NoConvergenceError
from graphsep.graphfile import parse_graph_file
from graphsep.graphs import (
    Dims,
    complete_graph,
    pe_matching_graph,
    single_edge_graph,
    star_graph,
)
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


@pytest.mark.parametrize(
    "data, err",
    [
        # the out-of-range vertex on line 2 comes before the non-ASCII byte
        (b"dims 2 2\nedge 3 3 1 1\nedge 1 1 2 2 # caf\xc3\xa9\n",
         "error: line 2: vertex (3,3) outside 2x2 grid\n"),
        (b"dims 2 2\nedge 1 1 2 2\nedge 1 2 2 1 # caf\xc3\xa9\n",
         "error: line 3: non-ASCII character\n"),
        # \v is a blank line's whitespace, not a line end
        (b"dims 2 2\n\x0b\nedge 1 1 3 3\n", "error: line 3: vertex (3,3) outside 2x2 grid\n"),
    ],
)
def test_analyze_names_the_physical_line_of_the_first_error(tmp_path, capsys, data, err):
    path = tmp_path / "bad.graph"
    path.write_bytes(data)
    assert main(["analyze", str(path)]) == 1
    assert capsys.readouterr().err == err


def test_generate_complete_round_trip(tmp_path):
    out = tmp_path / "k.graph"
    assert main(["generate", "complete", "--p", "2", "--q", "2", "--out", str(out)]) == 0
    g = parse_graph_file(out)
    assert len(g.sorted_edges) == 6


def test_generate_into_a_missing_directory_is_bad_input(tmp_path, capsys):
    # a failed write exits 1 like a failed read, not 2 as an internal error
    out = tmp_path / "missing" / "k.graph"
    assert main(["generate", "complete", "--p", "2", "--q", "2", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
    assert not out.parent.exists()


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

    def broken(suite, g):
        return harness._Trial("forced-failure")

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
        raise NoConvergenceError("eigenvalues stopped")

    # every binding, so an eigenvalue call anywhere on the verdict path would raise
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
    # analyze computes eigenvalues on a degree-violating graph, and on any graph
    # when the spectrum is asked for
    for g, extra in (
        (star_graph(Dims(2, 2)), []),
        (complete_graph(Dims(2, 2)), ["--spectrum"]),
    ):
        path = tmp_path / "k.graph"
        write_graph_file(path, g)
        assert main(["analyze", str(path), *extra]) == 2
        assert capsys.readouterr().err.startswith("internal error: eigenvalues stopped")


def test_ql_non_convergence_is_internal_error(tmp_path, monkeypatch, capsys):
    # the real kernel, not a stand-in, gives up once its iteration cap is spent
    monkeypatch.setattr(graphsep.matrix, "QL_MAX_ITERATIONS", 0)
    path = tmp_path / "star.graph"
    write_graph_file(path, star_graph(Dims(2, 2)))
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr().err.startswith("internal error: QL stopped")


def test_errors_not_tied_to_a_file_line_carry_line_none():
    for kind in (GraphSepError, *GraphSepError.__subclasses__()):
        exc = kind("message")
        assert (str(exc), exc.line) == ("message", None)


def test_internal_error_without_message_names_its_type(monkeypatch, capsys):
    # MemoryError() carries no message; the line must still say what went wrong
    def out_of_memory(args):
        raise MemoryError()

    monkeypatch.setattr(graphsep.cli, "_cmd_verify", out_of_memory)
    assert main(["verify", "--theorem", "5", "--p", "3", "--q", "3"]) == 2
    assert capsys.readouterr().err == "internal error: MemoryError\n"


def test_oversized_dense_reports_are_refused(tmp_path, monkeypatch, capsys):
    # a 10^10-vertex grid: refused before its n-long spectrum is started
    def spectrum(*args):
        raise AssertionError("spectrum computed")

    monkeypatch.setattr(graphsep.report, "eigenvalues_sym", spectrum)
    path = tmp_path / "huge.graph"
    path.write_text("dims 100000 100000\nedge 1 1 2 2\n")
    for command in ("analyze", "spectrum"):
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(graphsep.report.MAX_DENSE_VERTICES) in err
    # spectrum applies the bound itself, called directly as analyze is
    message = "100000x100000 grid has 10000000000 vertices; reports stop at 1024"
    with pytest.raises(BadDimsError, match=f"^{message}$"):
        graphsep.report.spectrum(parse_graph_file(path))


def test_generate_refuses_grids_past_the_vertex_bound(monkeypatch, capsys):
    # complete and star build every edge of the grid, and random draws from
    # its edge pools; on 33x32 they are refused before any edge is built
    def build(*args):
        raise AssertionError("edges built")

    for name in ("complete_graph", "star_graph", "random_graph"):
        monkeypatch.setattr(graphsep.cli, name, build)
    for family, extra in (("complete", []), ("star", []), ("random", ["--separable", "1"])):
        assert main(["generate", family, "--p", "33", "--q", "32", *extra]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: 33x32 grid has 1056 vertices; generate {family} stops at 1024\n"
    # the bound itself is legal: a 32x32 star has only 1023 edges
    monkeypatch.undo()
    assert main(["generate", "star", "--p", "32", "--q", "32"]) == 0
    assert capsys.readouterr().out.count("\nedge ") == 32 * 32 - 1


def test_reports_build_no_dense_matrix(tmp_path, monkeypatch, capsys):
    def dense(*args):
        raise AssertionError("dense matrix built")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "graphsep":
            for attr in ("density_matrix", "laplacian", "partial_transpose"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, dense)
    lone = single_edge_graph(Dims(32, 32), {(3, 7), (30, 2)})
    star = star_graph(Dims(8, 8))
    for g, min_eigenvalue in ((lone, -0.5), (star, None)):
        assert analyze(g).min_eigenvalue_estimate < 0
        r = analyze(g, include_spectrum=True)
        assert r.verdict.status == Status.ENTANGLED
        pt = r.spectrum["partial_transpose"]
        assert len(pt) == len(r.spectrum["density"]) == g.n
        assert pt[0] == r.min_eigenvalue_estimate
        if min_eigenvalue is not None:
            assert pt[0] == pytest.approx(min_eigenvalue, abs=1e-12)
        path = tmp_path / "g.graph"
        write_graph_file(path, g)
        assert main(["analyze", str(path), "--spectrum"]) == 0
        assert main(["spectrum", str(path), "--format", "json"]) == 0
        capsys.readouterr()


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
