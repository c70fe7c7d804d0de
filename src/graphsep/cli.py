"""Command line interface.

Exit codes: 0 success, 1 bad input or parameters, 2 internal error
(numerical non-convergence included), 3 verification suite reported
failures.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import BadParamsError, GraphSepError, NoConvergenceError
from .graphfile import format_graph, parse_graph_file
from .graphs import (
    Dims,
    complete_graph,
    density_matrix,
    pe_matching_graph,
    random_graph,
    single_edge_graph,
    star_graph,
)
from .harness import SUITE_DESCRIPTIONS, SUITE_IDS, run_suite
from .report import (
    analyze,
    render_text,
    report_json_dict,
    spectrum,
    spectrum_json_dict,
    spectrum_lines,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphsep",
        description="Classify graph density matrices as separable or entangled.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="classify the graph in a file")
    pa.add_argument("path", help="graph file to read")
    pa.add_argument("--format", choices=("text", "json"), default="text")
    pa.add_argument(
        "--spectrum", action="store_true", help="include eigenvalue estimates"
    )

    pg = sub.add_parser("generate", help="write a graph from a named family")
    fam = pg.add_subparsers(dest="family", required=True)

    def _grid_args(sp, with_n=False):
        sp.add_argument("--p", type=int, required=True, help="number of rows")
        sp.add_argument("--q", type=int, required=True, help="number of columns")
        if with_n:
            sp.add_argument(
                "--n", type=int, default=None, help="optional vertex-count cross-check"
            )
        sp.add_argument("--out", default=None, help="output file (default stdout)")

    _grid_args(fam.add_parser("complete", help="every pair of vertices joined"), True)
    _grid_args(fam.add_parser("star", help="vertex (1,1) joined to all others"), True)

    fe = fam.add_parser("single-edge", help="one edge differing in both coordinates")
    fe.add_argument("--p", type=int, required=True)
    fe.add_argument("--q", type=int, required=True)
    fe.add_argument(
        "--edge",
        type=int,
        nargs=4,
        required=True,
        metavar=("I", "J", "S", "T"),
        help="endpoints (I,J) and (S,T)",
    )
    fe.add_argument("--out", default=None)

    fm = fam.add_parser(
        "pe-matching", help="two-row graph matched by a fixed-point-free permutation"
    )
    fm.add_argument("--p", type=int, default=2, help="must be 2")
    fm.add_argument("--q", type=int, required=True)
    fm.add_argument(
        "--pi", required=True, help="comma-separated permutation of 1..Q, e.g. 2,3,1"
    )
    fm.add_argument("--out", default=None)

    fr = fam.add_parser("random", help="uniform sample from the two edge pools")
    fr.add_argument("--p", type=int, required=True)
    fr.add_argument("--q", type=int, required=True)
    fr.add_argument("--separable", type=int, default=0, help="separable edge count")
    fr.add_argument("--entangled", type=int, default=0, help="entangled edge count")
    fr.add_argument("--seed", type=int, default=0)
    fr.add_argument("--out", default=None)

    suite_list = ", ".join(f"{k}: {SUITE_DESCRIPTIONS[k]}" for k in SUITE_IDS)
    pv = sub.add_parser("verify", help="run a randomized verification suite")
    pv.add_argument(
        "--theorem", type=int, required=True, help=f"suite id ({suite_list})"
    )
    pv.add_argument("--p", type=int, required=True)
    pv.add_argument("--q", type=int, required=True)
    pv.add_argument("--trials", type=int, default=100)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument(
        "--dump-dir",
        default="graphsep-failures",
        help="directory for failing instances",
    )

    ps = sub.add_parser("spectrum", help="eigenvalue estimates for a graph file")
    ps.add_argument("path")
    ps.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _emit_graph(g, out_path) -> None:
    text = format_graph(g)
    if out_path:
        with open(out_path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        print(text, end="")


def _cmd_analyze(args) -> int:
    g = parse_graph_file(args.path)
    r = analyze(g, include_spectrum=args.spectrum)
    if args.format == "json":
        print(json.dumps(report_json_dict(r), indent=2))
    else:
        print(render_text(r), end="")
    return 0


def _cmd_generate(args) -> int:
    if args.family in ("complete", "star"):
        if args.n is not None and args.n != args.p * args.q:
            raise BadParamsError(
                f"--n {args.n} does not match a {args.p}x{args.q} grid"
            )
        maker = complete_graph if args.family == "complete" else star_graph
        g = maker(Dims(args.p, args.q))
    elif args.family == "single-edge":
        i, j, s, t = args.edge
        g = single_edge_graph(Dims(args.p, args.q), {(i, j), (s, t)})
    elif args.family == "pe-matching":
        if args.p != 2:
            raise BadParamsError(f"matching family needs --p 2, got {args.p}")
        try:
            pi = tuple(int(x) for x in args.pi.split(","))
        except ValueError:
            raise BadParamsError(f"--pi must be comma-separated integers, got {args.pi!r}")
        g = pe_matching_graph(Dims(2, args.q), pi)
    else:
        g = random_graph(
            Dims(args.p, args.q), args.separable, args.entangled, args.seed
        )
    _emit_graph(g, args.out)
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(
        args.theorem,
        (args.p, args.q),
        args.trials,
        args.seed,
        dump_dir=args.dump_dir,
    )
    print(json.dumps(report.to_json_dict(), indent=2))
    return 0 if report.ok else 3


def _cmd_spectrum(args) -> int:
    g = parse_graph_file(args.path)
    spec = spectrum(density_matrix(g), g.dims)
    if args.format == "json":
        print(json.dumps(spectrum_json_dict(spec), indent=2))
    else:
        print("\n".join(spectrum_lines(spec)))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_spectrum(args)
    except NoConvergenceError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except GraphSepError as exc:
        line = getattr(exc, "line", None)
        location = f"line {line}: " if line is not None else ""
        print(f"error: {location}{exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    run()
