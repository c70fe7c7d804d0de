"""Command line interface.

Exit codes: 0 success, 1 bad input or parameters (a closed stdout
included), 2 internal error (numerical non-convergence included), 3
verification suite reported failures.  A message past _ECHO_LIMIT
characters is printed with its middle cut out.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import GraphSepError, NoConvergenceError
from .graphfile import _decimal, format_graph, parse_graph_file, write_graph_file
from .graphs import (
    Dims,
    complete_graph,
    pe_matching_graph,
    random_graph,
    single_edge_graph,
    star_graph,
)
from .harness import SUITE_DESCRIPTIONS, SUITE_IDS, run_suite
from .report import (
    analyze,
    check_grid_size,
    render_text,
    report_json_dict,
    spectrum,
    spectrum_json_dict,
    spectrum_lines,
)

_ECHO_LIMIT = 240


def _shortened(message: str) -> str:
    """message, or past _ECHO_LIMIT characters its first and last 100 with
    the number of characters cut from between them: a refused field is not
    echoed whole, and the rule that refused it, at the end, stays."""
    if len(message) <= _ECHO_LIMIT:
        return message
    return f"{message[:100]}...[{len(message) - 200} characters cut]...{message[-100:]}"


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors, its subcommands' too, are
    _shortened."""

    def error(self, message):
        super().error(_shortened(message))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="graphsep",
        description="Classify graph density matrices as separable or entangled.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="classify the graph in a file")
    pa.set_defaults(run=_cmd_analyze)
    pa.add_argument("path", help="graph file to read")
    pa.add_argument("--format", choices=("text", "json"), default="text")
    pa.add_argument(
        "--spectrum", action="store_true", help="include eigenvalue estimates"
    )

    pg = sub.add_parser("generate", help="write a graph from a named family")
    pg.set_defaults(run=_cmd_generate)
    fam = pg.add_subparsers(dest="family", required=True)

    # a family that builds every edge of the grid, or draws by index from
    # its edge pools, is bounded: it stops at the reports' bound first
    def family(name, help, build, bounded=False, p=None, **options):
        sp = fam.add_parser(name, help=help)
        sp.set_defaults(build=build, bounded=bounded)
        rows = "number of rows" if p is None else f"must be {p}"
        sp.add_argument("--p", type=_integer, required=p is None, default=p, help=rows)
        sp.add_argument("--q", type=_integer, required=True, help="number of columns")
        for flag, spec in options.items():
            sp.add_argument(f"--{flag}", **spec)
        sp.add_argument("--out", default=None, help="output file (default stdout)")

    family(
        "complete", "every pair of vertices joined",
        lambda a: complete_graph(Dims(a.p, a.q)), bounded=True,
    )
    family(
        "star", "vertex (1,1) joined to all others",
        lambda a: star_graph(Dims(a.p, a.q)), bounded=True,
    )
    family(
        "single-edge", "one edge differing in both coordinates",
        lambda a: single_edge_graph(Dims(a.p, a.q), {tuple(a.edge[:2]), tuple(a.edge[2:])}),
        edge=dict(
            type=_integer, nargs=4, required=True, metavar=("I", "J", "S", "T"),
            help="endpoints (I,J) and (S,T)",
        ),
    )
    family(
        "pe-matching", "two-row graph matched by a fixed-point-free permutation",
        lambda a: pe_matching_graph(Dims(a.p, a.q), a.pi), p=2,
        pi=dict(
            type=_permutation, required=True,
            help="comma-separated permutation of 1..Q, e.g. 2,3,1",
        ),
    )
    family(
        "random", "uniform sample from the two edge pools",
        lambda a: random_graph(Dims(a.p, a.q), a.separable, a.entangled, a.seed),
        bounded=True,
        separable=dict(type=_integer, default=0, help="separable edge count"),
        entangled=dict(type=_integer, default=0, help="entangled edge count"),
        seed=dict(type=_integer, default=0),
    )

    suite_list = ", ".join(f"{k}: {SUITE_DESCRIPTIONS[k]}" for k in SUITE_IDS)
    pv = sub.add_parser("verify", help="run a randomized verification suite")
    pv.set_defaults(run=_cmd_verify)
    pv.add_argument(
        "--theorem", type=_integer, required=True, help=f"suite id ({suite_list})"
    )
    pv.add_argument("--p", type=_integer, required=True)
    pv.add_argument("--q", type=_integer, required=True)
    pv.add_argument("--trials", type=_integer, default=100)
    pv.add_argument("--seed", type=_integer, default=0)
    pv.add_argument(
        "--dump-dir",
        default="graphsep-failures",
        help="directory for failing instances",
    )

    ps = sub.add_parser("spectrum", help="eigenvalue estimates for a graph file")
    ps.set_defaults(run=_cmd_spectrum)
    ps.add_argument("path")
    ps.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _integer(text: str) -> int:
    """An integer option's value, in the one form graph files take (see
    graphfile._decimal); any other form is a usage error, exit 1."""
    value = _decimal(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"bad integer {text!r}")
    return value


def _permutation(text: str) -> tuple[int, ...]:
    """--pi: comma-separated fields, each an _integer."""
    return tuple(map(_integer, text.split(",")))


def _cmd_analyze(args) -> int:
    g = parse_graph_file(args.path)
    r = analyze(g, include_spectrum=args.spectrum)
    if args.format == "json":
        print(json.dumps(report_json_dict(r), indent=2))
    else:
        print(render_text(r), end="")
    return 0


def _cmd_generate(args) -> int:
    if args.bounded:
        check_grid_size((args.p, args.q), f"generate {args.family} stops")
    g = args.build(args)
    if args.out:
        write_graph_file(args.out, g)
    else:
        print(format_graph(g), end="")
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
    spec = spectrum(parse_graph_file(args.path))
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
        code = args.run(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # as Python's signal docs advise for SIGPIPE: the flush at exit
        # goes to devnull, so it cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except NoConvergenceError as exc:
        print(_shortened(f"internal error: {exc}"), file=sys.stderr)
        return 2
    except GraphSepError as exc:
        location = f"line {exc.line}: " if exc.line is not None else ""
        print(_shortened(f"error: {location}{exc}"), file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(_shortened(f"internal error: {str(exc) or type(exc).__name__}"), file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    run()
