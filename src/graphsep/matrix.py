"""Exact linear algebra for small symmetric matrices.

Entries are Python ints or fractions.Fraction values and every operation that
feeds a classification decision stays in exact arithmetic.  Floating point
appears only in eigenvalue estimation, which is reporting, never deciding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    DimMismatchError,
    NoConvergenceError,
    NotDensityError,
    NotSymmetricError,
)

Entry = int | Fraction

JACOBI_TOL = 1e-12
JACOBI_MAX_SWEEPS = 100


def exact_str(value: Entry) -> str:
    """Canonical "num/den" form; integral values print without a denominator."""
    return str(Fraction(value))


def float12(value) -> float:
    """Float rounded through 12 significant digits, for stable JSON output."""
    return float(f"{float(value):.12g}")


def _as_exact(x) -> Entry:
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"exact entry expected (int or Fraction), got {type(x).__name__}")


@dataclass(frozen=True)
class SymMatrix:
    """Immutable square symmetric matrix with exact entries."""

    rows: tuple[tuple[Entry, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        for row in self.rows:
            if len(row) != n:
                raise DimMismatchError("matrix is not square")
        for r in range(n):
            for c in range(r + 1, n):
                if self.rows[r][c] != self.rows[c][r]:
                    raise NotSymmetricError(f"entries ({r},{c}) and ({c},{r}) differ")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[Entry]]) -> "SymMatrix":
        return cls(tuple(tuple(_as_exact(x) for x in row) for row in rows))

    @property
    def order(self) -> int:
        return len(self.rows)

    def trace(self) -> Entry:
        return sum(self.rows[i][i] for i in range(self.order))

    def diagonal(self) -> tuple[Entry, ...]:
        return tuple(self.rows[i][i] for i in range(self.order))

    def row_sums(self) -> tuple[Entry, ...]:
        return tuple(sum(row) for row in self.rows)

    def scaled(self, factor: Entry) -> "SymMatrix":
        f = Fraction(factor)
        return SymMatrix(tuple(tuple(f * x for x in row) for row in self.rows))

    def to_floats(self) -> list[list[float]]:
        return [[float(x) for x in row] for row in self.rows]


def identity(n: int) -> SymMatrix:
    return SymMatrix(tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n)))


def add(a: SymMatrix, b: SymMatrix) -> SymMatrix:
    if a.order != b.order:
        raise DimMismatchError(f"cannot add order {a.order} to order {b.order}")
    return SymMatrix(
        tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a.rows, b.rows))
    )


def kron(a: SymMatrix, b: SymMatrix) -> SymMatrix:
    """Kronecker product; symmetric inputs give a symmetric result."""
    nb = b.order
    return SymMatrix(
        tuple(
            tuple(a.rows[ra][ca] * b.rows[rb][cb] for ca in range(a.order) for cb in range(nb))
            for ra in range(a.order)
            for rb in range(nb)
        )
    )


def partial_transpose(mat: SymMatrix, dims) -> SymMatrix:
    """Transpose each q-by-q block of an n-by-n matrix, n = p*q.

    Blocks follow the row-major vertex order, so they align with the first
    subsystem.  The map is an involution and preserves trace and diagonal.
    """
    p, q = dims
    n = mat.order
    if p < 1 or q < 1 or p * q != n:
        raise DimMismatchError(f"order {n} does not factor as {p}*{q}")
    rows = tuple(
        tuple(
            mat.rows[(row // q) * q + (col % q)][(col // q) * q + (row % q)]
            for col in range(n)
        )
        for row in range(n)
    )
    return SymMatrix(rows)


def block(mat: SymMatrix, dims, i: int, j: int) -> tuple[tuple[Entry, ...], ...]:
    """The (i, j) block of the p-by-p block partition, 1-based, as raw rows."""
    p, q = dims
    if mat.order != p * q:
        raise DimMismatchError(f"order {mat.order} does not factor as {p}*{q}")
    if not (1 <= i <= p and 1 <= j <= p):
        raise DimMismatchError(f"block index ({i},{j}) outside 1..{p}")
    return tuple(
        tuple(mat.rows[(i - 1) * q + r][(j - 1) * q + c] for c in range(q))
        for r in range(q)
    )


def line_sum_symmetric(rows) -> bool:
    """True when every row sum equals the matching column sum."""
    if isinstance(rows, SymMatrix):
        rows = rows.rows
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise DimMismatchError("line sums need a square block")
    for l in range(n):
        if sum(rows[l]) != sum(rows[r][l] for r in range(n)):
            return False
    return True


def is_psd_exact(mat: SymMatrix) -> bool:
    """Exact positive semidefiniteness by fraction-free symmetric elimination.

    Rational entries are cleared first with the positive lcm of denominators,
    which cannot change definiteness.  Pivoting runs in document order: a
    negative pivot refutes PSD, a zero pivot with a nonzero residual row
    refutes PSD, and a zero row is dropped.  Updates use the Bareiss rule
    (d*a[i][j] - a[i][k]*a[k][j]) / prev so intermediates stay integers.
    """
    n = mat.order
    if n == 0:
        return True
    scale = 1
    for row in mat.rows:
        for x in row:
            if isinstance(x, Fraction):
                scale = math.lcm(scale, x.denominator)
    a = [[int(x * scale) for x in row] for row in mat.rows]
    prev = 1
    for k in range(n):
        d = a[k][k]
        if d < 0:
            return False
        if d == 0:
            if any(a[k][j] != 0 for j in range(k + 1, n)):
                return False
            continue
        row_k = a[k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            for j in range(k + 1, n):
                row_i[j] = (d * row_i[j] - aik * row_k[j]) // prev
        prev = d
    return True


def _max_offdiag(a: list[list[float]]) -> float:
    n = len(a)
    return max(abs(a[r][c]) for r in range(n - 1) for c in range(r + 1, n))


def _rotate(a: list[list[float]], p: int, q: int) -> None:
    n = len(a)
    apq = a[p][q]
    diff = a[q][q] - a[p][p]
    if abs(apq) * 1e36 < abs(diff):
        t = apq / diff
    else:
        theta = diff / (2.0 * apq)
        t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
        if theta < 0.0:
            t = -t
    c = 1.0 / math.sqrt(t * t + 1.0)
    s = t * c
    tau = s / (1.0 + c)
    a[p][p] -= t * apq
    a[q][q] += t * apq
    a[p][q] = a[q][p] = 0.0
    for k in range(n):
        if k != p and k != q:
            akp, akq = a[k][p], a[k][q]
            a[k][p] = a[p][k] = akp - s * (akq + tau * akp)
            a[k][q] = a[q][k] = akq + s * (akp - tau * akq)


def eigenvalues_sym(
    mat: SymMatrix, tol: float = JACOBI_TOL, max_sweeps: int = JACOBI_MAX_SWEEPS
) -> list[float]:
    """All eigenvalues, ascending, by cyclic Jacobi rotations on floats.

    Sweeps continue until every off-diagonal magnitude is below tol; going
    past the sweep cap raises NoConvergenceError.
    """
    a = mat.to_floats()
    n = len(a)
    if n <= 1:
        return [a[0][0]] if n else []
    for _ in range(max_sweeps):
        if _max_offdiag(a) < tol:
            break
        for r in range(n - 1):
            for c in range(r + 1, n):
                if a[r][c] != 0.0:
                    _rotate(a, r, c)
    else:
        off = _max_offdiag(a)
        if off >= tol:
            raise NoConvergenceError(
                f"jacobi stopped after {max_sweeps} sweeps, off-diagonal {off:.3e}"
            )
    return sorted(a[i][i] for i in range(n))


def quadratic_form(mat: SymMatrix, x: Sequence[Entry]) -> Fraction:
    """Exact value of x^T A x."""
    if len(x) != mat.order:
        raise DimMismatchError(f"vector length {len(x)} != order {mat.order}")
    vec = [Fraction(v) for v in x]
    total = Fraction(0)
    for r, row in enumerate(mat.rows):
        total += vec[r] * sum(e * vec[c] for c, e in enumerate(row))
    return total


def purity(mat: SymMatrix) -> Fraction:
    """Exact trace of the square of a trace-1 symmetric matrix."""
    if mat.trace() != 1:
        raise NotDensityError("trace must be exactly 1")
    return Fraction(sum(x * x for row in mat.rows for x in row))
