"""Plain-text graph files.

Grammar, one directive per line:

    dims P Q          exactly once, before any edge
    edge I J S T      joins (I, J) to (S, T); equal endpoints make a loop

'#' starts a comment, blank lines are skipped, leading and trailing
whitespace is tolerated, fields are separated by single spaces, integers
are decimal digits with an optional leading '-', and the file must be
US-ASCII.
"""

from __future__ import annotations

from .errors import GraphFileError, OutOfRangeError
from .graphs import Dims, Graph


def parse_graph_text(text: str) -> Graph:
    dims: Dims | None = None
    edges = set()
    rows: dict[str, int] = {}  # a field already checked as a row, and its int
    cols: dict[str, int] = {}  # the same for columns
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if not raw.isascii():
            raise GraphFileError("non-ASCII character", line=lineno)
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        fields = stripped.split(" ")
        if "" in fields:
            raise GraphFileError(
                "fields must be separated by single spaces", line=lineno
            )
        keyword = fields[0]
        if keyword == "dims":
            if dims is not None:
                raise GraphFileError("duplicate dims header", line=lineno)
            if len(fields) != 3:
                raise GraphFileError("dims needs exactly two fields", line=lineno)
            p, q = (_parse_int(f, lineno) for f in fields[1:])
            if p < 1 or q < 1:
                raise GraphFileError("dims must be positive", line=lineno)
            dims = Dims(p, q)
        elif keyword == "edge":
            if dims is None:
                raise GraphFileError("edge line before dims header", line=lineno)
            if len(fields) != 5:
                raise GraphFileError("edge needs exactly four fields", line=lineno)
            _, i, j, s, t = fields  # strings, as in the memos
            try:
                edges.add(frozenset({(rows[i], cols[j]), (rows[s], cols[t])}))
            except KeyError:
                edges.add(_checked_edge(fields, dims, rows, cols, lineno))
        else:
            raise GraphFileError(f"unknown keyword {keyword!r}", line=lineno)
    if dims is None:
        raise GraphFileError("missing dims header")
    return Graph(dims, frozenset(edges))


def _checked_edge(fields, dims, rows, cols, lineno):
    """The edge of a line with a field missing from its axis's memo,
    checked in file order: the first bad integer, then the first endpoint
    off the grid.  A memo holds only fields that passed both checks, so a
    hit (never 0) skips them; the line's fields go in once all pass."""
    memos = (rows, cols, rows, cols)
    i, j, s, t = (
        memo.get(f) or _parse_int(f, lineno) for memo, f in zip(memos, fields[1:])
    )
    p, q = dims
    for (a, b) in ((i, j), (s, t)):
        if not (1 <= a <= p and 1 <= b <= q):
            raise OutOfRangeError(
                f"vertex ({a},{b}) outside {p}x{q} grid", line=lineno
            )
    rows[fields[1]], cols[fields[2]], rows[fields[3]], cols[fields[4]] = i, j, s, t
    return frozenset({(i, j), (s, t)})


def _parse_int(field: str, lineno: int) -> int:
    """Decimal digits with an optional leading '-'; int() alone would also
    take forms such as '+3', '1_0' and '0x1'.  Lines are ASCII by now, and
    an ASCII string is isdigit() only when it is made of 0-9."""
    if not field.removeprefix("-").isdigit():
        raise GraphFileError(f"bad integer {field!r}", line=lineno)
    return int(field)


def parse_graph_file(path) -> Graph:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise GraphFileError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError:
        raise GraphFileError("non-ASCII character") from None
    return parse_graph_text(text)


def format_graph(g: Graph) -> str:
    """Canonical text form: dims line, then edges sorted by linear indices."""
    lines = [f"dims {g.dims.p} {g.dims.q}"]
    for u, w in sorted((min(e), max(e)) for e in g.edges):
        lines.append(f"edge {u[0]} {u[1]} {w[0]} {w[1]}")
    return "\n".join(lines) + "\n"


def write_graph_file(path, g: Graph) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_graph(g))
