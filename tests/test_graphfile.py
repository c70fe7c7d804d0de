import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphfile_reference import parse_graph_text as reference_parse
from graphsep.errors import (
    EmptyEdgeSetError,
    GraphFileError,
    OnlyLoopsError,
    OutOfRangeError,
)
from graphsep.graphfile import (
    format_graph,
    parse_graph_file,
    parse_graph_text,
    write_graph_file,
)
from graphsep.graphs import Dims, build_graph, complete_graph, star_graph


def test_parse_minimal():
    g = parse_graph_text("dims 2 2\nedge 1 1 2 2\n")
    assert g.dims == Dims(2, 2)
    assert g.sorted_edges == (((1, 1), (2, 2)),)


def test_parse_comments_blanks_and_padding():
    text = """
# a 2x2 graph
dims 2 2

  edge 1 1 2 2   # the only edge
edge 1 1 1 2
"""
    g = parse_graph_text(text)
    assert len(g.sorted_edges) == 2


def test_parse_collapses_duplicate_edges():
    g = parse_graph_text("dims 2 2\nedge 1 1 2 2\nedge 2 2 1 1\nedge 1 2 1 2\nedge 1 1 2 2\n")
    assert g == build_graph(Dims(2, 2), [{(1, 1), (2, 2)}, {(1, 2)}])
    assert (g.sorted_edges, g.loops) == ((((1, 1), (2, 2)),), ((1, 2),))


def test_parse_loop_edge():
    g = parse_graph_text("dims 2 2\nedge 1 1 2 2\nedge 2 1 2 1\n")
    assert g.loops == ((2, 1),)


def test_out_of_range_carries_line_number():
    # the error names the offending endpoint, the second one included, and a
    # negative field is a valid integer that fails the range test
    for text, vertex, line in (
        ("dims 2 2\nedge 1 1 3 1\n", r"\(3,1\)", 2),
        ("dims 2 2\nedge 1 1 2 2\nedge 2 2 1 3\n", r"\(1,3\)", 3),
        ("dims 2 2\nedge 3 3 4 4\n", r"\(3,3\)", 2),
        ("dims 2 2\nedge -1 1 1 2\n", r"\(-1,1\)", 2),
        ("dims 2 3\n# comment\nedge 1 -1 1 2\n", r"\(1,-1\)", 3),
    ):
        with pytest.raises(OutOfRangeError, match=rf"^vertex {vertex} outside") as exc:
            parse_graph_text(text)
        assert exc.value.line == line


def test_first_error_in_file_order_wins_across_kinds():
    # each edge line is range-checked as it is read, so an out-of-range vertex
    # and an unknown keyword are reported in file order, whichever comes first
    with pytest.raises(OutOfRangeError) as exc:
        parse_graph_text("dims 2 2\nedge 1 1 3 3\nvertex 1 1\n")
    assert exc.value.line == 2
    with pytest.raises(GraphFileError, match="unknown keyword") as exc:
        parse_graph_text("dims 2 2\nvertex 1 1\nedge 1 1 3 3\n")
    assert exc.value.line == 2


def test_missing_dims():
    with pytest.raises(GraphFileError, match="missing dims"):
        parse_graph_text("# nothing here\n")


def test_edge_before_dims():
    with pytest.raises(GraphFileError, match="before dims") as exc:
        parse_graph_text("edge 1 1 2 2\ndims 2 2\n")
    assert exc.value.line == 1


def test_duplicate_dims():
    with pytest.raises(GraphFileError, match="duplicate") as exc:
        parse_graph_text("dims 2 2\ndims 2 2\nedge 1 1 2 2\n")
    assert exc.value.line == 2


def test_double_space_rejected():
    with pytest.raises(GraphFileError, match="single spaces"):
        parse_graph_text("dims 2 2\nedge 1  1 2 2\n")


def test_non_ascii_rejected():
    with pytest.raises(GraphFileError, match="non-ASCII") as exc:
        parse_graph_text("dims 2 2\nedge 1 1 2 2 # café\n")
    assert exc.value.line == 2


def test_bad_field_counts():
    with pytest.raises(GraphFileError, match="dims needs"):
        parse_graph_text("dims 2 2 3\n")
    with pytest.raises(GraphFileError, match="edge needs"):
        parse_graph_text("dims 2 2\nedge 1 1 2\n")


def test_bad_integer():
    # only decimal digits: int() alone would read 1_0, +3 and 0x1
    for text in (
        "dims 2 x\n",
        "dims 2_0 3\nedge 1 1 1 2\n",
        "dims 2 +3\nedge 1 1 1 2\n",
        "dims 0x1 2\nedge 1 1 1 2\n",
        "dims 20 3\nedge 1_0 1 1 2\n",
        "dims 2 3\nedge 1 +1 1 2\n",
        "dims 2 3\nedge 1 1 1 0x2\n",
    ):
        with pytest.raises(GraphFileError, match="bad integer"):
            parse_graph_text(text)
    # with two bad fields on one line, the first is reported
    with pytest.raises(GraphFileError, match=r"bad integer '\+1'") as exc:
        parse_graph_text("dims 2 3\nedge +1 1 1 0x2\n")
    assert exc.value.line == 2


def test_integer_past_the_int_string_limit_is_a_bad_integer():
    # int() refuses more digits than sys.get_int_max_str_digits() (4300 by
    # default) with ValueError; the parser reports a bad integer on its line
    long = "9" * 5000
    for text, line in (
        (f"dims 2 {long}\nedge 1 1 2 2\n", 1),
        (f"dims 2 2\nedge 1 1 2 2\nedge 1 -{long} 2 2\n", 3),
    ):
        with pytest.raises(GraphFileError, match="bad integer") as exc:
            parse_graph_text(text)
        assert exc.value.line == line
        assert long in str(exc.value)  # the command line shortens it, not the library


def test_nonpositive_dims():
    with pytest.raises(GraphFileError, match="positive"):
        parse_graph_text("dims 0 2\nedge 1 1 1 2\n")
    with pytest.raises(GraphFileError, match="positive"):
        parse_graph_text("dims 2 -3\nedge 1 1 1 2\n")


def test_unknown_keyword():
    with pytest.raises(GraphFileError, match="unknown keyword"):
        parse_graph_text("dims 2 2\nvertex 1 1\n")


def test_empty_edge_set_propagates():
    for text in ("dims 2 2\n", "dims 2 2\n# no edge\n\n"):
        with pytest.raises(EmptyEdgeSetError, match="^graph needs at least one edge$"):
            parse_graph_text(text)


def test_only_loops_propagates():
    # the later lines repeat memoised fields, so they take the fast path
    for text in (
        "dims 2 2\nedge 1 1 1 1\n",
        "dims 2 2\nedge 1 1 1 1\nedge 2 2 2 2\nedge 1 1 1 1\nedge 1 2 1 2\nedge 2 1 2 1\n",
    ):
        with pytest.raises(OnlyLoopsError, match="^graph has loops only; no matrix is defined$"):
            parse_graph_text(text)


@pytest.mark.parametrize("parse", [parse_graph_text, reference_parse], ids=["parser", "reference"])
def test_lines_end_only_at_universal_newlines(parse):
    # str.splitlines would also end a line at \v, \f and \x1c-\x1e
    with pytest.raises(OutOfRangeError) as exc:
        parse("dims 2 2\n\x0b\nedge 1 1 3 3\n")
    assert exc.value.line == 3
    for end in ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e"):
        with pytest.raises(GraphFileError, match="^dims needs exactly two fields$") as exc:
            parse(f"dims 2 2{end}edge 1 1 2 2\n")
        assert exc.value.line == 1
    # \r\n and a lone \r each end one line
    with pytest.raises(OutOfRangeError) as exc:
        parse("dims 2 2\r\n\redge 1 1 2 2\r\nedge 1 1 3 3\n")
    assert exc.value.line == 4
    g = parse("dims 2 2\redge 1 1 2 2\r\nedge 1 2 2 1\n")
    assert g.sorted_edges == (((1, 1), (2, 2)), ((1, 2), (2, 1)))


@pytest.mark.parametrize(
    "data, error, message, line",
    [
        (b"dims 2 2\nedge 3 3 1 1\nedge 1 1 2 2 # caf\xc3\xa9\n", OutOfRangeError,
         "vertex (3,3) outside 2x2 grid", 2),
        (b"dims 2 2\nedge 1 1 2 2\nedge 1 2 2 1 # caf\xc3\xa9\n", GraphFileError,
         "non-ASCII character", 3),
        # a byte that is not UTF-8 either
        (b"dims 2 2\r\nedge 1 1 2 2\r\nedge 1 2 2 1 \xff\r\n", GraphFileError,
         "non-ASCII character", 3),
    ],
)
def test_a_file_and_its_text_give_the_same_first_error(tmp_path, data, error, message, line):
    path = tmp_path / "g.graph"
    path.write_bytes(data)
    text = data.decode("ascii", errors="surrogateescape")
    for parse, arg in ((parse_graph_file, path), (parse_graph_text, text)):
        with pytest.raises(error) as exc:
            parse(arg)
        assert (type(exc.value), str(exc.value), exc.value.line) == (error, message, line)


def test_format_is_canonical():
    g = star_graph(Dims(2, 2))
    assert format_graph(g) == "dims 2 2\nedge 1 1 1 2\nedge 1 1 2 1\nedge 1 1 2 2\n"


def test_format_includes_loops():
    g = build_graph(Dims(2, 2), [frozenset({(1, 1), (2, 2)}), frozenset({(1, 2)})])
    assert format_graph(g) == "dims 2 2\nedge 1 1 2 2\nedge 1 2 1 2\n"


@pytest.mark.parametrize(
    "g",
    [
        complete_graph(Dims(2, 3)),
        star_graph(Dims(3, 2)),
        build_graph(Dims(2, 2), [frozenset({(1, 1), (2, 2)}), frozenset({(2, 1)})]),
    ],
)
def test_round_trip(g, tmp_path):
    path = tmp_path / "g.graph"
    write_graph_file(path, g)
    back = parse_graph_file(path)
    assert back == g
    assert format_graph(back) == format_graph(g)


@st.composite
def graphs_with_loops(draw):
    """A graph of 1-12 non-loop edges and 0-4 loops on a grid of 2-16
    vertices."""
    p, q = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    assume(p * q >= 2)
    vertex = st.tuples(st.integers(1, p), st.integers(1, q))
    pairs = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
                          min_size=1, max_size=12))
    loops = draw(st.lists(vertex.map(lambda v: (v,)), max_size=4))
    return build_graph(Dims(p, q), pairs + loops)


@settings(max_examples=200, deadline=None)
@given(graphs_with_loops())
def test_format_round_trips_graphs_with_loops(g):
    text = format_graph(g)
    back = parse_graph_text(text)
    assert back == g
    assert format_graph(back) == text


def test_unreadable_file():
    with pytest.raises(GraphFileError, match="cannot read"):
        parse_graph_file("/nonexistent/g.graph")


def _outcome(parse, text):
    """The graph, or the error's type, message and line."""
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


ZEROS = st.sampled_from(["", "", "0", "00"])
PADDING = st.sampled_from(["", " ", "\t", "  \t", "\t ", "\x0b", "\x0c "])
COMMENT = st.sampled_from(["", "# note", "#", " # a b  c"])
ERROR_LINES = st.sampled_from([
    "edge 1 1 2",                # edge needs exactly four fields
    "edge 1  1 2 2",             # fields must be separated by single spaces
    "edge 1 1 2 2 # caf\u00e9",   # non-ASCII character
    "vertex 1 1",                # unknown keyword
    "vertex 1 1 1 1",            # unknown keyword, four fields maybe memoised
    "dims 1 1 1 1",              # duplicate dims header, the same
    "dims 2 2",                  # duplicate dims header
    "dims 2",                    # dims needs exactly two fields
    "edge 1 +1 1 1",             # bad integer, and so are the next four
    "edge 1_0 1 1 1",
    "edge 1 1 0x1 1",
    "edge 1 1 1 1.0",
    "edge - 1 1 1",
    "edge 0 1 1 1",              # off the grid, and so are the next two
    "edge 1 1 1 -1",
    "edge 1 1 -01 1",
])


@st.composite
def graph_texts(draw):
    """A graph file of canonical edge lines and valid lines that are not
    canonical: leading zeros, padding by tabs, spaces, \\v and \\f, trailing
    comments, blank lines, CRLF and CR.  When errors are drawn, every edge
    field ranges over both axes, so a field checked on one axis comes back
    on the other, maybe off the grid there; bad dims and every other kind
    of bad line come at random places."""
    p, q = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    with_errors = draw(st.booleans())
    if with_errors:
        coords = [st.integers(1, max(p, q))] * 4
    else:
        coords = [st.integers(1, p), st.integers(1, q)] * 2
    canonical = st.tuples(*coords).map(lambda f: "edge %d %d %d %d" % f)
    spelled = st.tuples(
        PADDING, st.tuples(*(st.tuples(ZEROS, c) for c in coords)), PADDING, COMMENT
    ).map(lambda t: t[0] + "edge " + " ".join(z + str(v) for z, v in t[1]) + t[2] + t[3])
    comment = st.tuples(PADDING, st.sampled_from(["# x", "#edge 9 9 9 9"])).map("".join)
    kinds = [canonical, canonical, spelled, spelled, PADDING, comment]
    body = draw(st.lists(st.one_of(kinds + [ERROR_LINES] * with_errors),
                         min_size=1, max_size=16))
    dims_line = f"dims {p} {q}"
    if with_errors:
        dims_line = draw(st.sampled_from(
            [dims_line] * 20 + [f"dims 0 {q}", f"dims {p} -1", f"dims {p} +{q}", None]))
    if dims_line is not None:
        # mostly first, so edge lines are read; anywhere for "edge before dims"
        at = draw(st.sampled_from([0] * 7 + [len(body)])) if with_errors else 0
        body.insert(draw(st.integers(0, at)), dims_line)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(body),
                         max_size=len(body)))
    return "".join(line + end for line, end in zip(body, ends))


@settings(max_examples=400, deadline=None)
@given(graph_texts())
def test_parser_matches_reference_loop(text):
    # equal graphs, or the same first error: type, message and line
    assert _outcome(parse_graph_text, text) == _outcome(reference_parse, text)


@st.composite
def shared_field_texts(draw):
    """Edge lines whose every field ranges over both axes, so a field checked
    on one axis often comes back on the other, and may be off the grid
    there."""
    p, q = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    field = st.integers(1, max(p, q))
    lines = draw(st.lists(st.tuples(field, field, field, field), max_size=12))
    return f"dims {p} {q}\n" + "".join("edge %d %d %d %d\n" % f for f in lines)


@settings(max_examples=300, deadline=None)
@given(shared_field_texts())
def test_fields_shared_by_both_axes_match_reference_loop(text):
    # a memo per axis: a row field is checked again the first time it is a column
    assert _outcome(parse_graph_text, text) == _outcome(reference_parse, text)


@st.composite
def edge_list_texts(draw):
    """Dims, a list of endpoint pairs, loops among them, and a file that
    lists each pair as one or two lines, as given or reversed, in shuffled
    order.  Some lines spell a field with leading zeros or pad it, so they
    miss the memos after earlier lines have hit them."""
    p, q = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    vertex = st.tuples(st.integers(1, p), st.integers(1, q))
    pairs = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=12))
    lines = []
    for u, v in pairs:
        for a, b in draw(st.sampled_from([[(u, v)], [(v, u)], [(u, v), (u, v)], [(u, v), (v, u)]])):
            fields = " ".join(draw(ZEROS) + str(x) for x in (*a, *b))
            lines.append(draw(PADDING) + "edge " + fields)
    body = draw(st.permutations(lines))
    return Dims(p, q), pairs, f"dims {p} {q}\n" + "".join(line + "\n" for line in body)


@settings(max_examples=300, deadline=None)
@given(edge_list_texts())
def test_parsed_graph_equals_the_built_one(case):
    dims, pairs, text = case
    built = _outcome(lambda edges: build_graph(dims, edges), pairs)
    parsed = _outcome(parse_graph_text, text)
    if type(built) is tuple:  # loops only: the same error
        assert parsed == built
        return
    assert parsed == built and hash(parsed) == hash(built)
    for name in ("sorted_edges", "entangled_edges", "loops", "degree_sum"):
        assert getattr(parsed, name) == getattr(built, name), name


@pytest.mark.parametrize(
    "text, error, message, line",
    [
        # a row field already in the memo, reused as a column off the grid
        ("dims 3 2\nedge 3 1 1 2\nedge 1 3 2 1\n", OutOfRangeError,
         "vertex (1,3) outside 3x2 grid", 3),
        # every field of the bad line is already in its memo but one
        ("dims 2 2\nedge 1 1 2 2\nedge 2 2 1 +1\n", GraphFileError,
         "bad integer '+1'", 3),
        ("dims 2 2\nedge 1 1 2 2\nedge 1 2 2 1\nedge 2 2 1 3\n", OutOfRangeError,
         "vertex (1,3) outside 2x2 grid", 4),
        # a field spelled two ways is memoised twice, and the later line fails
        ("dims 2 3\nedge 1 01 2 2\nedge 01 1 2 2\nedge 1 1 3 1\n", OutOfRangeError,
         "vertex (3,1) outside 2x3 grid", 4),
        ("dims 2 2\nedge 1 1 2 2\nedge 1 1 2 2 2\n", GraphFileError,
         "edge needs exactly four fields", 3),
        # four memoised fields after another keyword
        ("dims 2 2\nedge 1 1 2 2\nvertex 1 1 2 2\n", GraphFileError,
         "unknown keyword 'vertex'", 3),
        ("dims 2 2\nedge 1 1 2 2\ndims 1 1 2 2\n", GraphFileError,
         "duplicate dims header", 3),
    ],
)
def test_memoised_fields_keep_the_first_error(text, error, message, line):
    for parse in (parse_graph_text, reference_parse):
        with pytest.raises(error) as exc:
            parse(text)
        assert (str(exc.value), exc.value.line) == (message, line)


def test_parse_memory_does_not_grow_with_dims():
    # per-axis tables sized by dims would need megabytes here
    text = "dims 1000000 1000000\n" + "".join(
        f"edge {k} {k + 1} {999_990 + k} {k}\n" for k in range(1, 6)
    )
    tracemalloc.start()
    try:
        g = parse_graph_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (len(g.sorted_edges), g.loops) == (5, ())
    assert peak < 1_000_000
