"""Byte-level pins of `graphsep analyze` output, one graph per evidence case.

Each case pins the exact render_text output and the exact
json.dumps(report_json_dict(r), indent=2) text, so a change to a label, a
key, its order or a number format shows here before any shape test sees it.
"""

import json

import pytest

from graphsep.graphfile import parse_graph_text
from graphsep.report import analyze, render_text, report_json_dict

# (graph text, render_text output, one-line JSON of report_json_dict).  The
# indent-2 JSON is rebuilt from the one-line form: json.loads keeps key order
# and a float's repr reads back to the same float, so the comparison below
# is byte for byte.
CASES = {
    "degree-witness": (
        "dims 2 2\nedge 1 1 1 2\nedge 1 1 2 1\nedge 1 1 2 2\n",
        """\
verdict: entangled
witness: degree change at row 3, sum -1
dims: 2x2 (4 vertices)
edges: 3 (loops: 0)
edge classes: entangled=1 separable-same-column=1 separable-same-row=1
degree sum: 6
purity: 1/2
partial transpose positive: no (min eigenvalue about -0.0935921)
degrees preserved: no (row 3 sum -1)
certificates: none
""",
        '{"verdict": "entangled", "certificate": null,'
        ' "witness": {"kind": "degree-criterion", "row": 3, "row_sum": "-1"},'
        ' "dims": [2, 2], "vertices": 4, "edges": 3, "loops": 0, "degree_sum": 6,'
        ' "edge_classes": {"separable-same-row": 1, "separable-same-column": 1,'
        ' "entangled": 1, "loop": 0}, "purity": "1/2",'
        ' "ppt": {"holds": false, "min_eigenvalue_estimate": -0.0935921354681},'
        ' "degree_criterion": {"holds": false, "violating_row": 3, "row_sum": "-1"},'
        ' "certificates": []}',
    ),
    "all-separable": (
        "dims 2 2\nedge 1 1 1 2\n",
        """\
verdict: separable (all-edges-separable)
dims: 2x2 (4 vertices)
edges: 1 (loops: 0)
edge classes: separable-same-row=1
degree sum: 2
purity: 1
partial transpose positive: yes (min eigenvalue about 0)
degrees preserved: yes
certificates: all-edges-separable, block-line-sum-symmetric
""",
        '{"verdict": "separable", "certificate": {"kind": "all-edges-separable",'
        ' "terms": [{"weight": "1", "row_factor": [["1", "0"], ["0", "0"]],'
        ' "column_factor": [["1/2", "-1/2"], ["-1/2", "1/2"]]}]}, "witness": null,'
        ' "dims": [2, 2], "vertices": 4, "edges": 1, "loops": 0, "degree_sum": 2,'
        ' "edge_classes": {"separable-same-row": 1, "separable-same-column": 0,'
        ' "entangled": 0, "loop": 0}, "purity": "1",'
        ' "ppt": {"holds": true, "min_eigenvalue_estimate": 0.0},'
        ' "degree_criterion": {"holds": true, "violating_row": null, "row_sum": null},'
        ' "certificates": ["all-edges-separable", "block-line-sum-symmetric"]}',
    ),
    "block-given": (
        "dims 2 4\nedge 1 1 2 2\nedge 1 2 2 3\nedge 1 3 2 4\nedge 1 4 2 1\n",
        """\
verdict: separable (block-line-sum-symmetric)
dims: 2x4 (8 vertices)
edges: 4 (loops: 0)
edge classes: entangled=4
degree sum: 8
purity: 1/4
partial transpose positive: yes (min eigenvalue about 0)
degrees preserved: yes
certificates: block-line-sum-symmetric
""",
        '{"verdict": "separable",'
        ' "certificate": {"kind": "block-line-sum-symmetric", "swapped": false},'
        ' "witness": null, "dims": [2, 4], "vertices": 8, "edges": 4, "loops": 0,'
        ' "degree_sum": 8, "edge_classes": {"separable-same-row": 0,'
        ' "separable-same-column": 0, "entangled": 4, "loop": 0}, "purity": "1/4",'
        ' "ppt": {"holds": true, "min_eigenvalue_estimate": 0.0},'
        ' "degree_criterion": {"holds": true, "violating_row": null, "row_sum": null},'
        ' "certificates": ["block-line-sum-symmetric"]}',
    ),
    # the block-given graph with its subsystems exchanged
    "block-swapped": (
        "dims 4 2\nedge 1 1 2 2\nedge 2 1 3 2\nedge 3 1 4 2\nedge 4 1 1 2\n",
        """\
verdict: separable (block-line-sum-symmetric, subsystems swapped)
dims: 4x2 (8 vertices)
edges: 4 (loops: 0)
edge classes: entangled=4
degree sum: 8
purity: 1/4
partial transpose positive: yes (min eigenvalue about 0)
degrees preserved: yes
certificates: block-line-sum-symmetric
""",
        '{"verdict": "separable",'
        ' "certificate": {"kind": "block-line-sum-symmetric", "swapped": true},'
        ' "witness": null, "dims": [4, 2], "vertices": 8, "edges": 4, "loops": 0,'
        ' "degree_sum": 8, "edge_classes": {"separable-same-row": 0,'
        ' "separable-same-column": 0, "entangled": 4, "loop": 0}, "purity": "1/4",'
        ' "ppt": {"holds": true, "min_eigenvalue_estimate": 0.0},'
        ' "degree_criterion": {"holds": true, "violating_row": null, "row_sum": null},'
        ' "certificates": ["block-line-sum-symmetric"]}',
    ),
    "unknown": (
        "dims 3 3\nedge 1 1 2 2\nedge 1 2 2 3\nedge 1 3 3 1\nedge 2 1 3 3\n",
        """\
verdict: unknown
dims: 3x3 (9 vertices)
edges: 4 (loops: 0)
edge classes: entangled=4
degree sum: 8
purity: 1/4
partial transpose positive: yes (min eigenvalue about 0)
degrees preserved: yes
certificates: none
""",
        '{"verdict": "unknown", "certificate": null, "witness": null,'
        ' "dims": [3, 3], "vertices": 9, "edges": 4, "loops": 0, "degree_sum": 8,'
        ' "edge_classes": {"separable-same-row": 0, "separable-same-column": 0,'
        ' "entangled": 4, "loop": 0}, "purity": "1/4",'
        ' "ppt": {"holds": true, "min_eigenvalue_estimate": 0.0},'
        ' "degree_criterion": {"holds": true, "violating_row": null, "row_sum": null},'
        ' "certificates": []}',
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_report_output_bytes(case):
    text, want_text, want_json = CASES[case]
    r = analyze(parse_graph_text(text))
    assert render_text(r) == want_text
    got = json.dumps(report_json_dict(r), indent=2)
    assert got == json.dumps(json.loads(want_json), indent=2)
    assert json.dumps(report_json_dict(r)) == want_json
