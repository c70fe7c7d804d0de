"""Full analysis of a single graph, renderable as text or JSON.

The float eigenvalue estimates of a report are computed here, next to the
exact checks; no verdict depends on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Dims, EdgeClass, Graph, classify_edge, density_matrix
from .matrix import (
    SymMatrix,
    eigenvalues_sym,
    exact_str,
    float12,
    partial_transpose,
    purity,
)
from .separability import (
    DegreeCriterionResult,
    Status,
    Verdict,
    _decide,
    _granted_certificates,
    degree_criterion,
    ppt_test,
    revalidate,
    verdict_to_json_dict,
)

@dataclass(frozen=True)
class PPTResult:
    """Exact partial-transpose positivity plus a float spectral estimate."""

    holds: bool
    min_eigenvalue_estimate: float


@dataclass(frozen=True)
class AnalysisReport:
    graph: Graph
    edge_classes: dict
    purity: Fraction
    ppt: PPTResult
    degree: DegreeCriterionResult
    certificates: tuple[str, ...]
    verdict: Verdict
    spectrum: dict | None


def spectrum(
    sigma: SymMatrix, dims: Dims, pt_eigenvalues: list[float] | None = None
) -> dict[str, list[float]]:
    """Float eigenvalues of a density matrix and of its partial transpose.

    pt_eigenvalues, when given, is the partial transpose's spectrum already
    computed by the caller.
    """
    if pt_eigenvalues is None:
        pt_eigenvalues = eigenvalues_sym(partial_transpose(sigma, dims))
    return {"density": eigenvalues_sym(sigma), "partial_transpose": pt_eigenvalues}


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


def analyze(g: Graph, include_spectrum: bool = False) -> AnalysisReport:
    """Run every check once on one graph and revalidate the verdict."""
    counts = {cls.value: 0 for cls in EdgeClass}
    for e in g.edges:
        counts[classify_edge(e).value] += 1
    sigma = density_matrix(g)
    pt_eigenvalues = eigenvalues_sym(partial_transpose(sigma, g.dims))
    ppt = PPTResult(ppt_test(g), pt_eigenvalues[0])
    degree = degree_criterion(g)
    certificates = tuple(_granted_certificates(g, ppt.holds))
    v = _decide(degree, certificates)
    if not revalidate(g, v):
        raise RuntimeError("verdict evidence failed revalidation")
    return AnalysisReport(
        graph=g,
        edge_classes=counts,
        purity=purity(sigma),
        ppt=ppt,
        degree=degree,
        certificates=tuple(c.kind for c in certificates),
        verdict=v,
        spectrum=spectrum(sigma, g.dims, pt_eigenvalues) if include_spectrum else None,
    )


def report_json_dict(r: AnalysisReport) -> dict:
    g = r.graph
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
                "holds": r.ppt.holds,
                "min_eigenvalue_estimate": float12(r.ppt.min_eigenvalue_estimate),
            },
            "degree_criterion": {
                "holds": r.degree.holds,
                "violating_row": r.degree.violating_row,
                "row_sum": (
                    exact_str(r.degree.row_sum)
                    if r.degree.row_sum is not None
                    else None
                ),
            },
            "certificates": list(r.certificates),
        }
    )
    if r.spectrum is not None:
        out["spectrum"] = spectrum_json_dict(r.spectrum)
    return out


def _witness_line(v: Verdict) -> str | None:
    w = v.witness
    if w is None:
        return None
    if w.kind == "degree-criterion":
        return f"witness: degree change at row {w.row}, sum {exact_str(w.row_sum)}"
    return (
        f"witness: quadratic form value {exact_str(w.value)}"
        f" (density scale {exact_str(Fraction(w.value, w.degree_sum))})"
    )


def render_text(r: AnalysisReport) -> str:
    g = r.graph
    v = r.verdict
    if v.status == Status.SEPARABLE:
        lines = [f"verdict: separable ({v.certificate.kind})"]
    elif v.status == Status.ENTANGLED:
        lines = ["verdict: entangled"]
        wline = _witness_line(v)
        if wline:
            lines.append(wline)
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
        + ("yes" if r.ppt.holds else "no")
        + f" (min eigenvalue about {r.ppt.min_eigenvalue_estimate:.6g})"
    )
    if r.degree.holds:
        lines.append("degrees preserved: yes")
    else:
        lines.append(
            "degrees preserved: no"
            f" (row {r.degree.violating_row} sum {exact_str(r.degree.row_sum)})"
        )
    lines.append(
        "certificates: " + (", ".join(r.certificates) if r.certificates else "none")
    )
    if r.spectrum is not None:
        lines.extend(spectrum_lines(r.spectrum))
    return "\n".join(lines) + "\n"
