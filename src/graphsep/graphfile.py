"""Plain-text graph files.

Grammar, one directive per line:

    dims P Q          exactly once, before any edge
    edge I J S T      joins (I, J) to (S, T); equal endpoints make a loop

Lines end at \\n, \\r\\n or \\r only.  '#' starts a comment, blank lines
are skipped, leading and trailing whitespace is tolerated, fields are
separated by single spaces, integers are decimal digits with an optional
leading '-', and the file must be US-ASCII.
"""

from __future__ import annotations

from .errors import GraphFileError, OutOfRangeError
from .graphs import Dims, Graph, _pair_base


def parse_graph_text(text: str) -> Graph:
    """The graph of a graph file's text; GraphFileError or OutOfRangeError
    names the line of the first fault in file order.

    An edge line whose four fields are all in the memos, each a field that
    has passed every check on its axis, is keyed at once; any other line
    goes through _checked_line, the one place each rule is checked."""
    dims: Dims | None = None
    m = 0  # the pair base, once dims is read
    rows: dict[str, int] = {}  # a field checked as a row, and its int times q
    cols: dict[str, int] = {}  # a field checked as a column, and its int
    pairs: set[int] = set()  # the pair key of each non-loop edge
    loops: set[int] = set()  # the vertex key of each loop
    for lineno, raw in enumerate(_physical_lines(text), start=1):
        try:  # not five fields, another keyword, or a field not memoised
            keyword, i, j, s, t = raw.split(" ")
            if keyword != "edge":
                raise KeyError(keyword)
            a, b = rows[i] + cols[j], rows[s] + cols[t]
        except (ValueError, KeyError):
            line = _checked_line(raw, lineno, dims, rows, cols)
            if line is None:
                continue
            if type(line) is Dims:
                dims, m = line, _pair_base(line)
                continue
            a, b = line
        if a < b:
            pairs.add(a * m + b)
        elif b < a:
            pairs.add(b * m + a)
        else:
            loops.add(a)
    if dims is None:
        raise GraphFileError("missing dims header")
    return Graph._from_keys(dims, pairs, loops)


def _physical_lines(text: str) -> list[str]:
    """text split at each \\n, \\r\\n and \\r, the line ends universal
    newlines reads; str.splitlines would also end a line at \\v, \\f and
    \\x1c-\\x1e, and so miscount the lines after one."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _checked_line(raw: str, lineno: int, dims: Dims | None, rows: dict, cols: dict):
    """Check one line against every rule, in order: None for a blank or
    comment line, Dims for the dims header, and for an edge line the keys
    of its two endpoints, its fields put in the memos."""
    if not raw.isascii():
        raise GraphFileError("non-ASCII character", line=lineno)
    stripped = raw.split("#", 1)[0].strip()
    if not stripped:
        return None
    fields = stripped.split(" ")
    if "" in fields:
        raise GraphFileError("fields must be separated by single spaces", line=lineno)
    keyword = fields[0]
    if keyword == "dims":
        if dims is not None:
            raise GraphFileError("duplicate dims header", line=lineno)
        if len(fields) != 3:
            raise GraphFileError("dims needs exactly two fields", line=lineno)
        p, q = (_parse_int(f, lineno) for f in fields[1:])
        if p < 1 or q < 1:
            raise GraphFileError("dims must be positive", line=lineno)
        return Dims(p, q)
    if keyword != "edge":
        raise GraphFileError(f"unknown keyword {keyword!r}", line=lineno)
    if dims is None:
        raise GraphFileError("edge line before dims header", line=lineno)
    if len(fields) != 5:
        raise GraphFileError("edge needs exactly four fields", line=lineno)
    i, j, s, t = (_parse_int(f, lineno) for f in fields[1:])
    p, q = dims
    for (a, b) in ((i, j), (s, t)):
        if not (1 <= a <= p and 1 <= b <= q):
            raise OutOfRangeError(f"vertex ({a},{b}) outside {p}x{q} grid", line=lineno)
    rows[fields[1]], cols[fields[2]], rows[fields[3]], cols[fields[4]] = i * q, j, s * q, t
    return i * q + j, s * q + t


def _parse_int(field: str, lineno: int) -> int:
    """Decimal digits with an optional leading '-'; int() alone would also
    take forms such as '+3', '1_0' and '0x1'.  Lines are ASCII by now, and
    an ASCII string is isdigit() only when it is made of 0-9."""
    if not field.removeprefix("-").isdigit():
        raise GraphFileError(f"bad integer {field!r}", line=lineno)
    return int(field)


def parse_graph_file(path) -> Graph:
    """parse_graph_text of the file at path.  Each byte that is not ASCII
    is read as a lone surrogate, so it fails the per-line ASCII check and
    the file's first error is its text's, line number included."""
    try:
        with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
            text = fh.read()
    except OSError as exc:
        raise GraphFileError(f"cannot read {path}: {exc}") from None
    return parse_graph_text(text)


def format_graph(g: Graph) -> str:
    """Canonical text form: dims line, then the edges, each loop as the pair
    (v, v), sorted by linear indices."""
    lines = [f"dims {g.dims.p} {g.dims.q}"]
    for u, w in sorted([*g.sorted_edges, *((v, v) for v in g.loops)]):
        lines.append(f"edge {u[0]} {u[1]} {w[0]} {w[1]}")
    return "\n".join(lines) + "\n"


def write_graph_file(path, g: Graph) -> None:
    """format_graph of g written to path; GraphFileError when it cannot be."""
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(format_graph(g))
    except OSError as exc:
        raise GraphFileError(f"cannot write {path}: {exc}") from None
