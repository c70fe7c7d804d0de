"""Full analysis of a single graph, renderable as text or JSON.

The float eigenvalue estimates of a report are computed here, next to the
exact checks; no verdict depends on them.  They come from the nonzero
entries of the Laplacian and of its partial transpose, so no n-by-n matrix
is built.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

from .errors import BadDimsError
from .graphs import Dims, EdgeClass, Graph, checked_dims, laplacian_entries
from .matrix import eigenvalues_sym, exact_str, float12, partial_transpose_entries
from .separability import (
    Status,
    Verdict,
    pt_laplacian_entries,
    revalidate,
    verdict,
    verdict_to_json_dict,
)

# Most vertices a report lists a spectrum for, and so the largest block
# Householder reduction and QL run on.
MAX_DENSE_VERTICES = 1024


class AnalysisReport(NamedTuple):
    graph: Graph
    edge_classes: dict
    purity: Fraction
    min_eigenvalue_estimate: float
    certificates: tuple[str, ...]
    verdict: Verdict
    spectrum: dict | None


def density_eigenvalues(entries: dict, g: Graph) -> list[float]:
    """Float eigenvalues of the Laplacian-like entries scaled to unit trace.

    Int true division rounds correctly, so x / degree_sum is exactly
    float(Fraction(x, degree_sum)).
    """
    ds = g.degree_sum
    return eigenvalues_sym({k: x / ds for k, x in entries.items()}, g.n)


def spectrum(g: Graph) -> dict[str, list[float]]:
    """Float eigenvalues of a graph's density matrix and of its partial
    transpose, on a grid that passes check_grid_size.

    When the two have equal entries (complete graphs, graphs with only
    same-row or same-column edges) one eigenvalue run serves both lists.
    """
    check_grid_size(g.dims, "reports stop")
    lap = laplacian_entries(g)
    pt = partial_transpose_entries(lap, g.dims)
    pt_eigenvalues = density_eigenvalues(pt, g)
    return {
        "density": list(pt_eigenvalues) if pt == lap else density_eigenvalues(lap, g),
        "partial_transpose": pt_eigenvalues,
    }


def spectrum_json_dict(spec: dict[str, list[float]]) -> dict:
    return {key: [float12(x) for x in vals] for key, vals in spec.items()}


def spectrum_lines(spec: dict[str, list[float]]) -> list[str]:
    return [
        f"{label}: " + ", ".join(f"{x:.6g}" for x in spec[key])
        for key, label in (
            ("density", "density spectrum"),
            ("partial_transpose", "partial transpose spectrum"),
        )
    ]


def check_grid_size(dims, who: str) -> Dims:
    """dims as checked_dims gives them, or BadDimsError for a grid with more
    than MAX_DENSE_VERTICES vertices, naming who stops at the bound.
    checked_dims refuses a dim below 1 first, since two negative dims have a
    positive product."""
    p, q = dims = checked_dims(dims)
    if p * q > MAX_DENSE_VERTICES:
        raise BadDimsError(
            f"{p}x{q} grid has {p * q} vertices; {who} at {MAX_DENSE_VERTICES}"
        )
    return dims


def analyze(g: Graph, include_spectrum: bool = False) -> AnalysisReport:
    """Classify one graph with verdict, revalidate the verdict, and add the
    report's counts and float estimates."""
    check_grid_size(g.dims, "reports stop")
    entangled = len(g.entangled_edges)
    same_row = sum(u[0] == v[0] for u, v in g.sorted_edges)
    counts = {
        EdgeClass.SAME_ROW.value: same_row,
        EdgeClass.SAME_COLUMN.value: len(g.sorted_edges) - entangled - same_row,
        EdgeClass.ENTANGLED.value: entangled,
        EdgeClass.LOOP.value: len(g.loops),
    }
    v = verdict(g)
    if not revalidate(g, v):
        raise RuntimeError("verdict evidence failed revalidation")
    spec = spectrum(g) if include_spectrum else None
    if v.witness is None:  # the partial transpose is a graph Laplacian: least eigenvalue 0
        least = 0.0
    elif spec is None:
        least = density_eigenvalues(pt_laplacian_entries(g), g)[0]
    else:
        least = spec["partial_transpose"][0]
    certificates = () if v.certificate is None else v.certificate.passes
    # the Laplacian's squared entries: each degree squared, and a 1 for each
    # of the degree_sum off-diagonal -1s
    degrees = Counter(chain.from_iterable(g.sorted_edges))
    return AnalysisReport(
        graph=g,
        edge_classes=counts,
        purity=Fraction(
            sum(d * d for d in degrees.values()) + g.degree_sum, g.degree_sum**2
        ),
        min_eigenvalue_estimate=least,
        certificates=certificates,
        verdict=v,
        spectrum=spec,
    )


def report_json_dict(r: AnalysisReport) -> dict:
    g, d = r.graph, r.verdict.witness
    out = verdict_to_json_dict(r.verdict)
    out.update(
        {
            "dims": [g.dims.p, g.dims.q],
            "vertices": g.n,
            "edges": len(g.sorted_edges),
            "loops": len(g.loops),
            "degree_sum": g.degree_sum,
            "edge_classes": r.edge_classes,
            "purity": exact_str(r.purity),
            "ppt": {
                "holds": d is None,
                "min_eigenvalue_estimate": float12(r.min_eigenvalue_estimate),
            },
            "degree_criterion": {
                "holds": d is None,
                "violating_row": None if d is None else d.row,
                "row_sum": None if d is None else exact_str(d.row_sum),
            },
            "certificates": list(r.certificates),
        }
    )
    if r.spectrum is not None:
        out["spectrum"] = spectrum_json_dict(r.spectrum)
    return out


def render_text(r: AnalysisReport) -> str:
    g, v, d = r.graph, r.verdict, r.verdict.witness
    if v.status == Status.SEPARABLE:
        lines = [f"verdict: separable ({v.certificate.label})"]
    elif v.status == Status.ENTANGLED:
        lines = [
            "verdict: entangled",
            f"witness: degree change at row {d.row}, sum {exact_str(d.row_sum)}",
        ]
    else:
        lines = ["verdict: unknown"]
    lines.append(f"dims: {g.dims.p}x{g.dims.q} ({g.n} vertices)")
    lines.append(f"edges: {len(g.sorted_edges)} (loops: {len(g.loops)})")
    classes = " ".join(
        f"{name}={count}" for name, count in sorted(r.edge_classes.items()) if count
    )
    lines.append(f"edge classes: {classes or 'none'}")
    lines.append(f"degree sum: {g.degree_sum}")
    lines.append(f"purity: {exact_str(r.purity)}")
    lines.append(
        "partial transpose positive: "
        + ("yes" if d is None else "no")
        + f" (min eigenvalue about {r.min_eigenvalue_estimate:.6g})"
    )
    if d is None:
        lines.append("degrees preserved: yes")
    else:
        lines.append(f"degrees preserved: no (row {d.row} sum {exact_str(d.row_sum)})")
    lines.append(
        "certificates: " + (", ".join(r.certificates) if r.certificates else "none")
    )
    if r.spectrum is not None:
        lines.extend(spectrum_lines(r.spectrum))
    return "\n".join(lines) + "\n"
