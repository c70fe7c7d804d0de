"""The graph-file line loop as it was before each coordinate field was
memoised: every edge line converts and range-checks all four fields.  The
differential test in test_graphfile.py holds parse_graph_text to it.  Lines
end at \\n, \\r\\n and \\r only, as in universal newlines."""

from __future__ import annotations

from graphsep.errors import GraphFileError, OutOfRangeError
from graphsep.graphs import Dims, Graph


def parse_graph_text(text: str) -> Graph:
    dims: Dims | None = None
    edges = set()
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(lines, start=1):
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
            if "".join(fields[1:]).isdigit():  # all unsigned, as none is empty
                i, j, s, t = map(int, fields[1:])
            else:  # raises at the first bad field or leaves a negative one
                i, j, s, t = (_parse_int(f, lineno) for f in fields[1:])
            p, q = dims
            if not (0 < i <= p and 0 < s <= p and 0 < j <= q and 0 < t <= q):
                for (a, b) in ((i, j), (s, t)):
                    if not (1 <= a <= p and 1 <= b <= q):
                        raise OutOfRangeError(
                            f"vertex ({a},{b}) outside {p}x{q} grid", line=lineno
                        )
            edges.add(frozenset({(i, j), (s, t)}))
        else:
            raise GraphFileError(f"unknown keyword {keyword!r}", line=lineno)
    if dims is None:
        raise GraphFileError("missing dims header")
    return Graph(dims, frozenset(edges))


def _parse_int(field: str, lineno: int) -> int:
    """Decimal digits with an optional leading '-'; int() alone would also
    take forms such as '+3', '1_0' and '0x1'.  Lines are ASCII by now, and
    an ASCII string is isdigit() only when it is made of 0-9."""
    if not field.removeprefix("-").isdigit():
        raise GraphFileError(f"bad integer {field!r}", line=lineno)
    return int(field)
