"""Exact linear algebra for small symmetric matrices.

Entries are Python ints or fractions.Fraction values and every operation that
feeds a classification decision stays in exact arithmetic.  Floating point
appears only in eigenvalue estimation, which is reporting, never deciding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Real
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import (
    DimMismatchError,
    NoConvergenceError,
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

    @property
    def entries(self) -> dict[tuple[int, int], Entry]:
        """Nonzero entries by 0-based (row, column)."""
        return {(r, c): x for r, row in enumerate(self.rows) for c, x in enumerate(row) if x}

    def trace(self) -> Entry:
        return sum(self.rows[i][i] for i in range(self.order))

    def diagonal(self) -> tuple[Entry, ...]:
        return tuple(self.rows[i][i] for i in range(self.order))

    def scaled(self, factor: Entry) -> "SymMatrix":
        f = Fraction(factor)
        return SymMatrix(tuple(tuple(f * x for x in row) for row in self.rows))


@dataclass(frozen=True)
class SparseSymMatrix:
    """Immutable symmetric matrix of the given order with exact entries,
    stored by 0-based (row, column); an absent entry is zero."""

    order: int
    entries: Mapping[tuple[int, int], Entry] = field(hash=False)

    def __post_init__(self):
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))
        for x in self.entries.values():
            _as_exact(x)
        _check_entries(self.entries, self.order)

    def trace(self) -> Entry:
        return sum(x for (r, c), x in self.entries.items() if r == c)

    def dense(self) -> SymMatrix:
        n, get = self.order, self.entries.get
        return SymMatrix(tuple(tuple(get((r, c), 0) for c in range(n)) for r in range(n)))


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


def _check_entries(entries: Mapping[tuple[int, int], Entry], n: int) -> None:
    """Raise unless every entry lies in the n-by-n matrix and equals its mirror."""
    for (r, c), x in entries.items():
        if not (0 <= r < n and 0 <= c < n):
            raise DimMismatchError(f"entry ({r},{c}) outside order {n}")
        if entries.get((c, r), 0) != x:
            raise NotSymmetricError(f"entries ({r},{c}) and ({c},{r}) differ")


def _dense_blocks(entries: Mapping[tuple[int, int], Real], zero: Real) -> list[list[list]]:
    """The square block, rows ascending, of each connected component of the
    nonzero pattern of a checked symmetric matrix, filled in one pass over
    its entries with zero elsewhere; a row with no nonzero entry is in none."""
    root = {}

    def find(v: int) -> int:
        while (up := root.setdefault(v, v)) != v:
            root[v] = v = root[up]  # path halving: v's grandparent, then step there
        return v

    for (r, c), x in entries.items():
        if x and r <= c:  # the mirror (c, r) adds nothing
            a, b = find(r), find(c)
            if a < b:
                root[b] = a
            elif b < a:
                root[a] = b
    comps = {}
    for v in sorted(root):
        comps.setdefault(find(v), []).append(v)
    where = {v: (k, i) for k, rows in enumerate(comps.values()) for i, v in enumerate(rows)}
    blocks = [[[zero] * len(rows) for _ in rows] for rows in comps.values()]
    for (r, c), x in entries.items():
        if x:
            k, i = where[r]
            blocks[k][i][where[c][1]] = x
    return blocks


def _bareiss_psd(a: list[list[Entry]]) -> bool:
    """Exact positive semidefiniteness of one dense block of integral entries."""
    n = len(a)
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


def is_psd_exact(mat: SymMatrix | SparseSymMatrix) -> bool:
    """Exact positive semidefiniteness by fraction-free symmetric elimination.

    Rational entries are cleared first with the positive lcm of their
    denominators, which cannot change definiteness.  The matrix is then the
    direct sum of its blocks on the connected components of its nonzero
    pattern, so each block is tested on its own: a 1-by-1 block by its
    sign, a larger one by elimination.  Pivoting runs in row order: a
    negative pivot refutes PSD, a zero pivot with a nonzero residual row
    refutes PSD, and a zero row is dropped.  Updates use the Bareiss rule
    (d*a[i][j] - a[i][k]*a[k][j]) / prev so intermediates stay integers.
    """
    entries = mat.entries
    scale = math.lcm(*(x.denominator for x in entries.values()))
    if scale > 1:
        entries = {k: int(x * scale) for k, x in entries.items()}
    return all(
        a[0][0] > 0 if len(a) == 1 else _bareiss_psd(a) for a in _dense_blocks(entries, 0)
    )


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


def _jacobi(a: list[list[float]], tol: float, max_sweeps: int) -> list[float]:
    """Diagonal of a after cyclic Jacobi sweeps, which stop once every
    off-diagonal magnitude is below tol; past the sweep cap they raise
    NoConvergenceError."""
    n = len(a)
    if n == 1:
        return [a[0][0]]
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
    return [a[i][i] for i in range(n)]


def eigenvalues_sym(
    entries: Mapping[tuple[int, int], Real],
    n: int,
    tol: float = JACOBI_TOL,
    max_sweeps: int = JACOBI_MAX_SWEEPS,
) -> list[float]:
    """All n eigenvalues, ascending, of the symmetric n-by-n matrix whose
    nonzero entries are given by 0-based (row, column).

    The matrix is the direct sum of its blocks on the connected components
    of its nonzero pattern, so Jacobi runs on each block's floats on its
    own and an empty row contributes exactly 0.0.
    """
    _check_entries(entries, n)
    blocks = _dense_blocks({k: float(x) for k, x in entries.items()}, 0.0)
    zeros = [0.0] * (n - sum(map(len, blocks)))
    return sorted(zeros + [x for a in blocks for x in _jacobi(a, tol, max_sweeps)])
