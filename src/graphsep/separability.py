"""Separability analysis of graph density matrices.

Everything that decides a verdict runs in exact arithmetic.  A verdict is
always backed by evidence: a certificate object for separable states, a
witness object for entangled ones.  revalidate() re-derives that evidence
from scratch so callers never have to trust the classifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import ClassVar, Iterable, Iterator, Sequence

from .errors import NotEntangledEdgeError, WrongDimsError
from .graphs import (
    Dims,
    Edge,
    EdgeClass,
    Graph,
    Vertex,
    classify_edge,
    density_matrix,
    laplacian,
    linear_index,
)
from .matrix import (
    SymMatrix,
    add,
    block,
    exact_str,
    is_psd_exact,
    kron,
    line_sum_symmetric,
    partial_transpose,
    quadratic_form,
)

# Grid shapes where a nonnegative partial transpose already settles
# separability, with no extra certificate needed.
LOW_PPT_DIMS = frozenset({(2, 2), (2, 3), (3, 2)})


def ppt_test(g: Graph) -> bool:
    """Exact positivity of the partially transposed Laplacian."""
    return is_psd_exact(partial_transpose(laplacian(g), g.dims))


@dataclass(frozen=True)
class DegreeCriterionResult:
    """Whether the partial transpose preserves every vertex degree.

    When it does not, violating_row names a 1-based row of the partially
    transposed combinatorial matrix whose sum went negative, scanning from
    the last row upward.  The sums total zero, so a nonzero sum anywhere
    guarantees a negative one somewhere.
    """

    holds: bool
    violating_row: int | None = None
    row_sum: int | None = None


def degree_criterion(g: Graph) -> DegreeCriterionResult:
    sums = partial_transpose(laplacian(g), g.dims).row_sums()
    if all(s == 0 for s in sums):
        return DegreeCriterionResult(True)
    for row in range(g.n, 0, -1):
        if sums[row - 1] < 0:
            return DegreeCriterionResult(False, row, sums[row - 1])
    raise AssertionError("nonzero row sums must include a negative one")


def entangled_edge_witness(dims: Dims, edge: Edge) -> tuple[Fraction, ...]:
    """Test vector that goes negative against any graph containing the edge.

    Entries are 1/2 everywhere except the edge's two endpoints, which get
    (p + q - 1) / (2 (p + q)).
    """
    dims = Dims(*dims)
    e = frozenset(edge)
    if classify_edge(e, dims) != EdgeClass.ENTANGLED:
        raise NotEntangledEdgeError(
            "witness vector needs an edge whose endpoints differ in both coordinates"
        )
    special = Fraction(dims.p + dims.q - 1, 2 * (dims.p + dims.q))
    vec = [Fraction(1, 2)] * dims.n
    for v in e:
        vec[linear_index(v, dims) - 1] = special
    return tuple(vec)


def witness_value(g: Graph, x: Sequence) -> Fraction:
    """Exact quadratic form of x against the partially transposed Laplacian."""
    return quadratic_form(partial_transpose(laplacian(g), g.dims), x)


# ---------------------------------------------------------------------------
# Certificates of separability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductDecomposition:
    """Convex mixture of product states that reproduces the density matrix.

    Each term is (weight, row_factor, column_factor) with the factors acting
    on the p-dim and q-dim subsystems respectively.
    """

    kind: ClassVar[str] = "all-edges-separable"
    terms: tuple[tuple[Fraction, SymMatrix, SymMatrix], ...]


@dataclass(frozen=True)
class BlockLineSumSymmetric:
    """Every block of the block-partitioned combinatorial matrix has matching
    row and column sums, which forces separability."""

    kind: ClassVar[str] = "block-line-sum-symmetric"


@dataclass(frozen=True)
class PerfectEntangledMatching:
    """Two-row graph whose entangled edges form a full column matching.

    permutation[j - 1] is the second-row column matched to first-row column
    j; entangled edges being fixed-point free makes it a derangement.
    """

    kind: ClassVar[str] = "pe-matching"
    permutation: tuple[int, ...]
    entangled_edges: tuple[tuple[Vertex, Vertex], ...]
    separable_edge_count: int


@dataclass(frozen=True)
class LowDimPPT:
    """Nonnegative partial transpose on a grid small enough to be decisive."""

    kind: ClassVar[str] = "low-dim-ppt"


def _point_mass(n: int, i: int) -> SymMatrix:
    return SymMatrix(
        tuple(
            tuple(1 if r == c == i - 1 else 0 for c in range(n)) for r in range(n)
        )
    )


def _difference_projector(n: int, a: int, b: int) -> SymMatrix:
    """Unit-trace projector onto the normalized difference of two basis axes."""
    half = Fraction(1, 2)
    rows = [[Fraction(0)] * n for _ in range(n)]
    rows[a - 1][a - 1] = rows[b - 1][b - 1] = half
    rows[a - 1][b - 1] = rows[b - 1][a - 1] = -half
    return SymMatrix(tuple(tuple(row) for row in rows))


def all_separable_certificate(g: Graph) -> ProductDecomposition | None:
    """Explicit product mixture when no edge spans both coordinates."""
    pairs = g.sorted_edges
    classes = [classify_edge(frozenset(pr)) for pr in pairs]
    if any(c == EdgeClass.ENTANGLED for c in classes):
        return None
    p, q = g.dims
    weight = Fraction(1, len(pairs))
    terms = []
    for pr, cls in zip(pairs, classes):
        (i, j), (s, t) = pr
        if cls == EdgeClass.SAME_ROW:
            terms.append((weight, _point_mass(p, i), _difference_projector(q, j, t)))
        else:
            terms.append((weight, _difference_projector(p, i, s), _point_mass(q, j)))
    return ProductDecomposition(tuple(terms))


def reconstruct(cert: ProductDecomposition) -> SymMatrix:
    """Weighted sum of the Kronecker products of the certificate's terms."""
    total = None
    for weight, row_factor, col_factor in cert.terms:
        piece = kron(row_factor, col_factor).scaled(weight)
        total = piece if total is None else add(total, piece)
    return total


def block_lss_certificate(g: Graph) -> BlockLineSumSymmetric | None:
    lap = laplacian(g)
    p = g.dims.p
    for i in range(1, p + 1):
        for j in range(1, p + 1):
            if not line_sum_symmetric(block(lap, g.dims, i, j)):
                return None
    return BlockLineSumSymmetric()


def pe_matching_certificate(g: Graph) -> PerfectEntangledMatching | None:
    """Certificate when entangled edges perfectly match the two rows.

    Requires every first-row column and every second-row column to be used
    exactly once; partial matchings get no certificate even when they avoid
    fixed columns, because they can still leave the state entangled.
    """
    if g.dims.p != 2:
        raise WrongDimsError(f"matching certificate needs p = 2, got p = {g.dims.p}")
    q = g.dims.q
    ent = tuple(
        pr for pr in g.sorted_edges if classify_edge(frozenset(pr)) == EdgeClass.ENTANGLED
    )
    if len(ent) != q:
        return None
    firsts = sorted(u[1] for u, _ in ent)
    seconds = sorted(v[1] for _, v in ent)
    if firsts != list(range(1, q + 1)) or seconds != list(range(1, q + 1)):
        return None
    mapping = {u[1]: v[1] for u, v in ent}
    permutation = tuple(mapping[j] for j in range(1, q + 1))
    return PerfectEntangledMatching(
        permutation, ent, len(g.sorted_edges) - q
    )


# ---------------------------------------------------------------------------
# Witnesses of entanglement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeCriterionWitness:
    kind: ClassVar[str] = "degree-criterion"
    row: int
    row_sum: int


@dataclass(frozen=True)
class QuadraticWitness:
    """Vector x with x^T M x < 0 against the partially transposed matrix.

    value is exact for the combinatorial matrix; divide by degree_sum for
    the density-matrix scale.
    """

    kind: ClassVar[str] = "quadratic-form"
    vector: tuple[Fraction, ...]
    value: Fraction
    degree_sum: int


def quadratic_witness(g: Graph, edge: Edge) -> QuadraticWitness:
    vec = entangled_edge_witness(g.dims, edge)
    return QuadraticWitness(vec, witness_value(g, vec), g.degree_sum)


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


class Status(Enum):
    SEPARABLE = "separable"
    ENTANGLED = "entangled"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Verdict:
    status: Status
    certificate: object | None = None
    witness: object | None = None


def _granted_certificates(g: Graph, ppt: bool | None = None) -> Iterator:
    """Every certificate of separability the graph earns, in verdict order.

    Order: the all-separable product construction, block line-sum
    symmetry, the two-row matching certificate, and last the small-grid
    positivity rule.  Each check runs only when the next certificate is
    asked for.  ppt, when given, is ppt_test(g) already computed.
    """
    cert = all_separable_certificate(g)
    if cert is not None:
        yield cert
    cert = block_lss_certificate(g)
    if cert is not None:
        yield cert
    if g.dims.p == 2:
        cert = pe_matching_certificate(g)
        if cert is not None:
            yield cert
    if tuple(g.dims) in LOW_PPT_DIMS and (ppt_test(g) if ppt is None else ppt):
        yield LowDimPPT()


def _decide(degree: DegreeCriterionResult, certificates: Iterable) -> Verdict:
    """Verdict from the degree check and the granted certificates.

    Certificates are consulted only when degrees are preserved, and then
    only the first one is taken.
    """
    if not degree.holds:
        return Verdict(
            Status.ENTANGLED,
            witness=DegreeCriterionWitness(degree.violating_row, degree.row_sum),
        )
    cert = next(iter(certificates), None)
    if cert is None:
        return Verdict(Status.UNKNOWN)
    return Verdict(Status.SEPARABLE, certificate=cert)


def verdict(g: Graph) -> Verdict:
    """Classify a graph state: the degree check, then the certificates.

    A changed degree is an entanglement witness.  Preserved degrees already
    make the partial transpose positive, since it is then the Laplacian of
    another graph (Braunstein, Ghosh and Severini, PRA 73, 2006; Hildebrand,
    Mancini and Severini, MSCS 18, 2008), so the certificates are tried next
    in _granted_certificates order.  Anything none of them certifies is
    reported unknown.
    """
    return _decide(degree_criterion(g), _granted_certificates(g))


def _revalidate_certificate(g: Graph, cert) -> bool:
    if isinstance(cert, ProductDecomposition):
        if not cert.terms:
            return False
        total_weight = Fraction(0)
        for weight, row_factor, col_factor in cert.terms:
            if weight <= 0:
                return False
            total_weight += weight
            for factor, dim in ((row_factor, g.dims.p), (col_factor, g.dims.q)):
                if factor.order != dim or factor.trace() != 1:
                    return False
                if not is_psd_exact(factor):
                    return False
        if total_weight != 1:
            return False
        return reconstruct(cert) == density_matrix(g)
    if isinstance(cert, BlockLineSumSymmetric):
        return block_lss_certificate(g) is not None
    if isinstance(cert, PerfectEntangledMatching):
        if g.dims.p != 2:
            return False
        q = g.dims.q
        perm = cert.permutation
        if sorted(perm) != list(range(1, q + 1)):
            return False
        if any(perm[j - 1] == j for j in range(1, q + 1)):
            return False
        claimed = {((1, j), (2, perm[j - 1])) for j in range(1, q + 1)}
        actual = {
            pr
            for pr in g.sorted_edges
            if classify_edge(frozenset(pr)) == EdgeClass.ENTANGLED
        }
        if claimed != actual:
            return False
        return cert.separable_edge_count == len(g.sorted_edges) - q
    if isinstance(cert, LowDimPPT):
        return tuple(g.dims) in LOW_PPT_DIMS and ppt_test(g)
    return False


def _revalidate_witness(g: Graph, wit) -> bool:
    if isinstance(wit, DegreeCriterionWitness):
        sums = partial_transpose(laplacian(g), g.dims).row_sums()
        if not (1 <= wit.row <= g.n):
            return False
        return sums[wit.row - 1] == wit.row_sum and wit.row_sum != 0
    if isinstance(wit, QuadraticWitness):
        return witness_value(g, wit.vector) == wit.value and wit.value < 0
    return False


def revalidate(g: Graph, v: Verdict) -> bool:
    """Re-derive the verdict's evidence from the graph alone."""
    if v.status == Status.SEPARABLE:
        return v.witness is None and _revalidate_certificate(g, v.certificate)
    if v.status == Status.ENTANGLED:
        return v.certificate is None and _revalidate_witness(g, v.witness)
    return v.certificate is None and v.witness is None and ppt_test(g)


def _matrix_strings(mat: SymMatrix) -> list[list[str]]:
    return [[exact_str(x) for x in row] for row in mat.rows]


def verdict_to_json_dict(v: Verdict) -> dict:
    cert = None
    if v.certificate is not None:
        c = v.certificate
        if isinstance(c, ProductDecomposition):
            cert = {
                "kind": c.kind,
                "terms": [
                    {
                        "weight": exact_str(w),
                        "row_factor": _matrix_strings(rf),
                        "column_factor": _matrix_strings(cf),
                    }
                    for w, rf, cf in c.terms
                ],
            }
        elif isinstance(c, PerfectEntangledMatching):
            cert = {
                "kind": c.kind,
                "permutation": list(c.permutation),
                "entangled_edges": [
                    [list(u), list(w)] for u, w in c.entangled_edges
                ],
                "separable_edge_count": c.separable_edge_count,
            }
        else:
            cert = {"kind": c.kind}
    wit = None
    if v.witness is not None:
        w = v.witness
        if isinstance(w, DegreeCriterionWitness):
            wit = {"kind": w.kind, "row": w.row, "row_sum": exact_str(w.row_sum)}
        else:
            wit = {
                "kind": w.kind,
                "vector": [exact_str(x) for x in w.vector],
                "value": exact_str(w.value),
                "degree_sum": w.degree_sum,
            }
    return {"verdict": v.status.value, "certificate": cert, "witness": wit}
