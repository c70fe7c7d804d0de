import pytest

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
    assert len(g.edges) == 2


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


def test_nonpositive_dims():
    with pytest.raises(GraphFileError, match="positive"):
        parse_graph_text("dims 0 2\nedge 1 1 1 2\n")
    with pytest.raises(GraphFileError, match="positive"):
        parse_graph_text("dims 2 -3\nedge 1 1 1 2\n")


def test_unknown_keyword():
    with pytest.raises(GraphFileError, match="unknown keyword"):
        parse_graph_text("dims 2 2\nvertex 1 1\n")


def test_empty_edge_set_propagates():
    with pytest.raises(EmptyEdgeSetError):
        parse_graph_text("dims 2 2\n")


def test_only_loops_propagates():
    with pytest.raises(OnlyLoopsError):
        parse_graph_text("dims 2 2\nedge 1 1 1 1\n")


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


def test_unreadable_file():
    with pytest.raises(GraphFileError, match="cannot read"):
        parse_graph_file("/nonexistent/g.graph")
