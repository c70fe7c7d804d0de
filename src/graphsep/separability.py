"""Separability analysis of graph density matrices.

Everything that decides a verdict runs in exact arithmetic.  A verdict is
always backed by evidence: a certificate object for separable states, a
degree witness for entangled ones.  Each kind of evidence owns its check(g),
which re-derives it from the graph alone, and its to_json(); revalidate()
calls the check only for the exact types a status may carry, so callers
never have to trust the classifier.

The partial transpose keeps the Laplacian's diagonal and moves the entry of
an edge {(i,j),(s,t)} to ((i,t),(s,j)), so the degree, block and witness
checks read it off the edge list in O(m) without building a matrix; only
ppt_test, the reports and the suites build the whole map.  A product
decomposition is revalidated the same way, in integers over one common
denominator, against the Laplacian's nonzero entries.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

from .errors import DimMismatchError, NotEntangledEdgeError, WrongDimsError
from .graphs import (
    Dims,
    Edge,
    EdgeClass,
    Graph,
    checked_dims,
    checked_edge,
    classify_edge,
    laplacian_entries,
    linear_index,
)
from .matrix import (
    _EXACT_TYPES,
    SparseSymMatrix,
    SymMatrix,
    add,
    exact_str,
    is_psd_integral,
    kron,
    partial_transpose_entries,
)


def pt_laplacian_entries(g: Graph) -> dict:
    """Nonzero entries of the partially transposed Laplacian by 0-based
    (row, column), by the generic index rule: the diagonal stays and the
    entry of each edge {(i,j),(s,t)} moves to ((i,t),(s,j))."""
    return partial_transpose_entries(laplacian_entries(g), g.dims)


def ppt_test(g: Graph) -> bool:
    """Exact positivity of the Laplacian's partial transpose by the generic
    index rule; the reference for the edge-based checks.  The map has no
    positive off-diagonal entry and its entries total 0, so is_psd_integral
    decides it by its row sums alone: PSD when every one is 0, not PSD
    otherwise."""
    return is_psd_integral(pt_laplacian_entries(g))


class DegreeCriterionWitness(NamedTuple):
    """The last 1-based row of the partially transposed Laplacian whose sum
    went negative.  The sums total zero, so a nonzero sum anywhere
    guarantees a negative one somewhere."""

    kind = "degree-criterion"
    row: int
    row_sum: int

    def check(self, g: Graph) -> bool:
        """Whether the row's sum in g's partial transpose is this nonzero
        row_sum."""
        # a bool is an int, so it is refused by type; a row outside the grid
        # has no entry, so its sum reads as zero
        if type(self.row) is not int or type(self.row_sum) is not int:
            return False
        return self.row_sum != 0 and _pt_row_sum(g, self.row) == self.row_sum

    def to_json(self) -> dict:
        return {"kind": self.kind, "row": self.row, "row_sum": exact_str(self.row_sum)}


def _pt_row_sum(g: Graph, row: int) -> int:
    """Sum of one 1-based row of the partially transposed Laplacian, over the
    entangled edges alone, as in degree_criterion; a row outside the grid
    sums to zero."""
    q = g.dims.q
    total = 0
    for (i, j), (s, t) in g.entangled_edges:
        a, b = (i - 1) * q, (s - 1) * q  # 1-based linear_index, inlined for speed
        total += (a + j == row) + (b + t == row) - (a + t == row) - (b + j == row)
    return total


def degree_criterion(g: Graph) -> DegreeCriterionWitness | None:
    """Witness that the partial transpose changes a vertex degree, or None
    when every degree is preserved."""
    q = g.dims.q
    sums = {}  # 1-based row -> sum; a plain dict: Counter calls __missing__ per new row
    get = sums.get
    for (i, j), (s, t) in g.entangled_edges:  # other edges' four updates cancel
        a, b = (i - 1) * q, (s - 1) * q  # 1-based linear_index, inlined for speed
        sums[a + j] = get(a + j, 0) + 1
        sums[b + t] = get(b + t, 0) + 1
        sums[a + t] = get(a + t, 0) - 1
        sums[b + j] = get(b + j, 0) - 1
    negative = [(row, x) for row, x in sums.items() if x < 0]
    return DegreeCriterionWitness(*max(negative)) if negative else None


def entangled_edge_witness(dims: Dims, edge: Edge) -> tuple[Fraction, ...]:
    """Test vector whose witness_value is negative when the edge is the
    graph's only entangled edge, whatever its separable edges (suite 1), or
    when the graph's entangled edges all pass through one vertex (suite 2).

    It is not negative against every graph containing the edge: against
    complete_graph(Dims(2, 2)) the value for {(1,1),(2,2)} is +1/16.
    Entries are 1/2 everywhere except the edge's two endpoints, which get
    (p + q - 1) / (2 (p + q)).
    """
    dims = checked_dims(dims)
    e = checked_edge(edge)
    if len(e) != 2 or classify_edge(e, dims) != EdgeClass.ENTANGLED:
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
    if len(x) != g.n:
        raise DimMismatchError(f"vector length {len(x)} != order {g.n}")
    # quadratic: summed over the integers den * x, then divided by den ** 2
    exact = [Fraction(v) for v in x]
    den = lcm(*(v.denominator for v in exact))
    y = [v.numerator * (den // v.denominator) for v in exact]
    q = g.dims.q
    total = 0
    for (i, j), (s, t) in g.sorted_edges:
        a, b = (i - 1) * q - 1, (s - 1) * q - 1  # 0-based linear_index is a + j
        total += y[a + j] ** 2 + y[b + t] ** 2 - 2 * y[a + t] * y[b + j]
    return Fraction(total, den**2)


# ---------------------------------------------------------------------------
# Certificates of separability
# ---------------------------------------------------------------------------


def _matrix_strings(mat: SparseSymMatrix) -> list[list[str]]:
    n = mat.order
    rows = [["0"] * n for _ in range(n)]
    for (r, c), x in mat.entries.items():
        rows[r][c] = exact_str(x)
    return rows


class BlockLineSumSymmetric(NamedTuple):
    """Every block of the block-partitioned combinatorial matrix has matching
    row and column sums, which forces separability.  swapped: the blocks are
    those of the same state on the q-by-p grid, (i, j) read as (j, i)."""

    kind = "block-line-sum-symmetric"
    passes = (kind,)
    swapped: bool = False

    @property
    def label(self) -> str:
        return self.kind + (", subsystems swapped" if self.swapped else "")

    def check(self, g: Graph) -> bool:
        """Whether g's blocks are line-sum symmetric in the claimed order."""
        return isinstance(self.swapped, bool) and _block_line_sums_match(g, self.swapped)

    def to_json(self) -> dict:
        return {"kind": self.kind, "swapped": self.swapped}


class ProductDecomposition(NamedTuple):
    """Convex mixture of product states that reproduces the density matrix.

    Each term is (weight, row_factor, column_factor) with the factors acting
    on the p-dim and q-dim subsystems respectively.  A factor keeps only its
    nonzero entries: a point mass has one, a difference projector four.
    """

    kind = "all-edges-separable"
    label = kind
    # no entangled edges, so the block check, which reads only those, passes too
    passes = (kind, BlockLineSumSymmetric.kind)
    terms: tuple[tuple[Fraction, SparseSymMatrix, SparseSymMatrix], ...]

    def check(self, g: Graph) -> bool:
        """Whether the terms are a convex mixture of product states, each
        factor of unit trace and PSD, that sums to g's density matrix."""
        terms = self.terms
        if not isinstance(terms, tuple) or not terms:
            return False
        p, q = g.dims
        # each distinct factor object once; keyed by id, since a factor
        # hashes by its order alone
        factors = {}
        for term in terms:
            if not isinstance(term, tuple) or len(term) != 3:
                return False
            weight, row_factor, col_factor = term
            # exact types only, as _check_exact takes entries: a Fraction
            # subclass may override numerator, and a SparseSymMatrix subclass
            # skip the entry checks; past the types, a weight's sign is its
            # numerator's
            if type(weight) not in _EXACT_TYPES or weight.numerator <= 0:
                return False
            for factor, dim in ((row_factor, p), (col_factor, q)):
                if type(factor) is not SparseSymMatrix or factor.order != dim:
                    return False
                factors[id(factor)] = factor
        # every weight and every distinct factor's entry as an integer over
        # one common denominator den, so the mixture is summed in ints and
        # is den**3 times the real one; den * x is x.numerator * (den //
        # x.denominator), exactly, without a Fraction multiply
        den = lcm(
            *(w.denominator for w, _, _ in terms),
            *(x.denominator for f in factors.values() for x in f.entries.values()),
        )
        weights = [w.numerator * (den // w.denominator) for w, _, _ in terms]
        if sum(weights) != den:
            return False
        # den times each distinct factor: unit trace is a diagonal summing
        # to den, and a positive scaling keeps definiteness
        ints = {}
        for key, factor in factors.items():
            entries = ints[key] = {}
            trace = 0
            for (r, c), x in factor.entries.items():
                entries[r, c] = y = x.numerator * (den // x.denominator)
                if r == c:
                    trace += y
            if trace != den:
                return False
            if not is_psd_integral(entries):
                return False
        # degree_sum * den**3 times the mixture less den**3 times the
        # Laplacian, sparse like it: all zero exactly when the two are equal
        cube = den**3
        excess = {k: -cube * x for k, x in laplacian_entries(g).items()}
        get = excess.get
        degree_sum = g.degree_sum
        for w, (_, row_factor, col_factor) in zip(weights, terms):
            w *= degree_sum
            cols = ints[id(col_factor)].items()
            # row-factor entry (a, b) times column-factor entry (c, d) lands at
            # (a q + c, b q + d); an all-separable term has at most 4 of them
            for (a, b), x in ints[id(row_factor)].items():
                wx, a, b = w * x, a * q, b * q
                for (c, d), y in cols:
                    key = a + c, b + d
                    excess[key] = get(key, 0) + wx * y
        return not any(excess.values())

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "terms": [
                {
                    "weight": exact_str(w),
                    "row_factor": _matrix_strings(rf),
                    "column_factor": _matrix_strings(cf),
                }
                for w, rf, cf in self.terms
            ],
        }


# the entries of every difference projector, shared, so a projector's
# mirror entries are one object
_HALF, _MINUS_HALF = Fraction(1, 2), Fraction(-1, 2)


def _point_mass(n: int, i: int) -> SparseSymMatrix:
    return SparseSymMatrix(n, {(i - 1, i - 1): 1})


def _difference_projector(n: int, a: int, b: int) -> SparseSymMatrix:
    """Unit-trace projector onto the normalized difference of two basis axes."""
    a, b = a - 1, b - 1
    return SparseSymMatrix(
        n, {(a, a): _HALF, (b, b): _HALF, (a, b): _MINUS_HALF, (b, a): _MINUS_HALF}
    )


def all_separable_certificate(g: Graph) -> ProductDecomposition | None:
    """Explicit product mixture when no edge spans both coordinates; equal
    factors are one object."""
    if g.entangled_edges:
        return None
    pairs = g.sorted_edges
    p, q = g.dims
    weight = Fraction(1, len(pairs))
    factors = {}  # (order, a, b) -> the point mass at a == b or the projector

    def factor(n: int, a: int, b: int) -> SparseSymMatrix:
        key = n, a, b
        f = factors.get(key)
        if f is None:
            f = factors[key] = _point_mass(n, a) if a == b else _difference_projector(n, a, b)
        return f

    terms = []
    for (i, j), (s, t) in pairs:
        if i == s:
            terms.append((weight, factor(p, i, i), factor(q, j, t)))
        else:
            terms.append((weight, factor(p, i, s), factor(q, j, j)))
    return ProductDecomposition(tuple(terms))


def reconstruct(cert: ProductDecomposition) -> SymMatrix:
    """Weighted sum of the Kronecker products of the certificate's terms; the
    dense reference for the sparse comparison in revalidate."""
    total = None
    for weight, row_factor, col_factor in cert.terms:
        piece = kron(row_factor.dense(), col_factor.dense()).scaled(weight)
        total = piece if total is None else add(total, piece)
    return total


def _block_line_sums_match(g: Graph, swapped: bool) -> bool:
    """Whether every q-by-q Laplacian block has equal row and column sums,
    with each edge read as {(j,i),(t,s)} when swapped.  Diagonal blocks
    always do; an entangled edge {(i,j),(s,t)} with i < s adds to row j and
    column t of block (i, s), whose transpose is block (s, i).  Other edges
    lie in a diagonal block or cancel, so only entangled edges are read.

    The excess of row pair i < s at column c, on the P-by-Q grid the edge
    is read on, is keyed by the one int (i (P + 1) + s) (Q + 1) + c: each
    1-based coordinate is below its base, so distinct triples never share
    a key."""
    p, q = g.dims
    excess = {}  # a plain dict: Counter calls __missing__ for every new key
    get = excess.get
    if swapped:  # the q-by-p grid; the smaller swapped row comes first
        rows, cols = q + 1, p + 1
        for (i, j), (s, t) in g.entangled_edges:
            if j < t:
                base = (j * rows + t) * cols
                a, b = base + i, base + s
            else:
                base = (t * rows + j) * cols
                a, b = base + s, base + i
            excess[a] = get(a, 0) + 1
            excess[b] = get(b, 0) - 1
    else:
        rows, cols = p + 1, q + 1
        for (i, j), (s, t) in g.entangled_edges:
            base = (i * rows + s) * cols
            a, b = base + j, base + t
            excess[a] = get(a, 0) + 1
            excess[b] = get(b, 0) - 1
    return not any(excess.values())


def block_lss_certificate(g: Graph) -> BlockLineSumSymmetric | None:
    """Certificate when the Laplacian's blocks are line-sum symmetric in
    either subsystem order, tried as given first."""
    for swapped in (False, True):
        if _block_line_sums_match(g, swapped):
            return BlockLineSumSymmetric(swapped)
    return None


def pe_matching_certificate(g: Graph) -> BlockLineSumSymmetric | None:
    """Block certificate of a two-row graph whose entangled edges perfectly
    match the rows, or None for any other graph.

    A perfect matching gives every column one entangled edge in and one out,
    so its blocks are line-sum symmetric in the given order and the result is
    BlockLineSumSymmetric(False), the certificate verdict grants.  The
    function stays under its own name for suite 7 and for tracers that wrap
    it by name.

    Requires every first-row column and every second-row column to be used
    exactly once; partial matchings get no certificate even when they avoid
    fixed columns, because they can still leave the state entangled.
    """
    if g.dims.p != 2:
        raise WrongDimsError(f"matching certificate needs p = 2, got p = {g.dims.p}")
    columns = list(range(1, g.dims.q + 1))
    ent = g.entangled_edges
    firsts = sorted(u[1] for u, _ in ent)
    if firsts != columns or sorted(v[1] for _, v in ent) != columns:
        return None
    return block_lss_certificate(g)


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


class Status(Enum):
    SEPARABLE = "separable"
    ENTANGLED = "entangled"
    UNKNOWN = "unknown"


class Verdict(NamedTuple):
    status: Status
    certificate: ProductDecomposition | BlockLineSumSymmetric | None = None
    witness: DegreeCriterionWitness | None = None


def verdict(g: Graph) -> Verdict:
    """Classify a graph state: the all-separable product construction when
    no edge is entangled, then block line-sum symmetry as given, then the
    degree check, then block line-sum symmetry with the subsystems swapped.
    Each check runs only when the ones before it decided nothing.

    A changed degree is an entanglement witness.  Preserved degrees already
    make the partial transpose positive, since it is then the Laplacian of
    another graph (Braunstein, Ghosh and Severini, PRA 73, 2006; Hildebrand,
    Mancini and Severini, MSCS 18, 2008).  Anything no certificate covers is
    reported unknown.

    The certificates may come first because each implies preserved degrees.
    With i < s, an entangled edge {(i,j),(s,t)} adds +1 to the given-order
    excess (i, s, j) and -1 to (i, s, t), so the partial transpose's row
    sum at vertex (r, c) is the sum over s > r of excess (r, s, c) less the
    sum over i < r of excess (i, r, c): all zero when the blocks match.
    Swapped, each row sum is the same number read at vertex (c, r) of the
    q-by-p grid, and with no entangled edge every row sum is zero.  So the
    order changes no verdict and no evidence: a certified graph skips the
    degree pass, and a degree-violating one pays one failed given-order
    block pass before it.
    """
    if not g.entangled_edges:
        return Verdict(Status.SEPARABLE, certificate=all_separable_certificate(g))
    if _block_line_sums_match(g, False):
        return Verdict(Status.SEPARABLE, certificate=BlockLineSumSymmetric(False))
    witness = degree_criterion(g)
    if witness is not None:
        return Verdict(Status.ENTANGLED, witness=witness)
    if _block_line_sums_match(g, True):
        return Verdict(Status.SEPARABLE, certificate=BlockLineSumSymmetric(True))
    return Verdict(Status.UNKNOWN)


# The evidence each decided status may carry, compared by exact type, so a
# subclass or a look-alike class never reaches its own check.  A new kind of
# evidence is one class with check and to_json, and one entry here.
CERTIFICATE_TYPES = (ProductDecomposition, BlockLineSumSymmetric)
WITNESS_TYPES = (DegreeCriterionWitness,)


def revalidate(g: Graph, v: Verdict) -> bool:
    """Re-derive the verdict's evidence from the graph alone."""
    if v.status == Status.SEPARABLE:
        evidence, other, types = v.certificate, v.witness, CERTIFICATE_TYPES
    elif v.status == Status.ENTANGLED:
        evidence, other, types = v.witness, v.certificate, WITNESS_TYPES
    else:
        return v == Verdict(Status.UNKNOWN) and verdict(g) == v
    cls = type(evidence)
    # `in` compares classes by identity unless a metaclass redefines ==
    exact = type(cls) is type and cls in types
    return other is None and exact and evidence.check(g)


def verdict_to_json_dict(v: Verdict) -> dict:
    return {
        "verdict": v.status.value,
        "certificate": None if v.certificate is None else v.certificate.to_json(),
        "witness": None if v.witness is None else v.witness.to_json(),
    }
