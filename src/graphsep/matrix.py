"""Exact linear algebra for small symmetric matrices.

Entries are Python ints or fractions.Fraction values and every operation that
feeds a classification decision stays in exact arithmetic.  Floating point
appears only in eigenvalue estimation, which is reporting, and in the
shifted Cholesky test that suite 0 checks the exact PSD test against;
neither decides a verdict.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from numbers import Real
from types import MappingProxyType
from typing import Mapping

from .errors import (
    DimMismatchError,
    NoConvergenceError,
    NotSymmetricError,
)

Entry = int | Fraction
_EXACT_TYPES = frozenset({int, Fraction})

QL_MAX_ITERATIONS = 30  # per eigenvalue; QL converges cubically, so a few suffice
_EPS = math.ulp(1.0)  # machine epsilon


def exact_str(value: Entry) -> str:
    """Canonical "num/den" form; integral values print without a denominator."""
    return str(Fraction(value))


def float12(value) -> float:
    """Float rounded through 12 significant digits, for stable JSON output."""
    return float(f"{float(value):.12g}")


def _check_exact(entries: dict[tuple[int, int], Entry], n: int) -> None:
    """Refuse any entry that is not exactly an int or a Fraction (a bool is
    an int, but not an entry), then run _check_entries."""
    if not set(map(type, entries.values())) <= _EXACT_TYPES:
        bad = next(x for x in entries.values() if type(x) not in _EXACT_TYPES)
        raise TypeError(f"exact entry expected (int or Fraction), got {type(bad).__name__}")
    _check_entries(entries, n)


def _check_entries(entries: Mapping[tuple[int, int], Real], n: int) -> None:
    """Raise, entry by entry in order, on one outside the n-by-n matrix or
    unequal to its mirror, an absent mirror reading 0.  A diagonal entry is
    its own mirror, and a mirror that is the same object is taken as equal,
    so neither is compared."""
    get = entries.get
    for (r, c), x in entries.items():
        if not (0 <= r < n and 0 <= c < n):
            raise DimMismatchError(f"entry ({r},{c}) outside order {n}")
        if r != c:
            y = get((c, r), 0)
            if y is not x and y != x:
                raise NotSymmetricError(f"entries ({r},{c}) and ({c},{r}) differ")


class _Frozen:
    """A record whose fields, named in _fields, are set once by __init__:
    equal only to an object of exactly its class with equal fields, hashed
    by its fields, and refusing assignment and deletion."""

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = (f"{name}={value!r}" for name, value in zip(self._fields, self._key()))
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SymMatrix(_Frozen):
    """Immutable square symmetric matrix; every entry, zeros included, is
    exactly an int or a Fraction, as in SparseSymMatrix."""

    _fields = ("rows",)

    def __init__(self, rows: tuple[tuple[Entry, ...], ...]):
        object.__setattr__(self, "rows", rows)
        self.__post_init__()

    def __post_init__(self):
        n = len(self.rows)
        for row in self.rows:
            if len(row) != n:
                raise DimMismatchError("matrix is not square")
        _check_exact(
            {(r, c): x for r, row in enumerate(self.rows) for c, x in enumerate(row)}, n
        )

    @property
    def order(self) -> int:
        return len(self.rows)

    @property
    def entries(self) -> dict[tuple[int, int], Entry]:
        """Nonzero entries by 0-based (row, column)."""
        return {(r, c): x for r, row in enumerate(self.rows) for c, x in enumerate(row) if x}

    def scaled(self, factor: Entry) -> "SymMatrix":
        f = Fraction(factor)
        return SymMatrix(tuple(tuple(f * x for x in row) for row in self.rows))


class SparseSymMatrix(_Frozen):
    """Immutable symmetric matrix of the given order with exact entries,
    stored by 0-based (row, column); an absent entry is zero.  The order is
    exactly a non-negative int, and an entry exactly an int or a Fraction: a
    bool is an int, but neither an order nor an entry."""

    _fields = ("order", "entries")

    def __init__(self, order: int, entries: Mapping[tuple[int, int], Entry]):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "entries", entries)
        self.__post_init__()

    def __post_init__(self):
        if type(self.order) is not int:
            raise TypeError(f"int order expected, got {type(self.order).__name__}")
        if self.order < 0:
            raise DimMismatchError(f"order {self.order} is negative")
        entries = dict(self.entries)
        object.__setattr__(self, "entries", MappingProxyType(entries))
        _check_exact(entries, self.order)

    def __hash__(self):
        return hash((self.order,))  # by order alone: the entries are a mapping

    def dense(self) -> SymMatrix:
        n, get = self.order, self.entries.get
        return SymMatrix(tuple(tuple(get((r, c), 0) for c in range(n)) for r in range(n)))


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


def partial_transpose_entries(entries: Mapping[tuple[int, int], Entry], dims) -> dict:
    """Partial transpose of the entries by 0-based (row, column), vertices
    row-major on a p-by-q grid: the entry at ((a, b), (x, y)) moves to
    ((a, y), (x, b)).  An involution that keeps the diagonal."""
    q = dims[1]
    out = {}
    for (r, c), x in entries.items():
        b, t = r % q, c % q  # r = a * q + b and c = s * q + t
        out[r - b + t, c - t + b] = x
    return out


def partial_transpose(mat: SymMatrix, dims) -> SymMatrix:
    """Transpose each q-by-q block of an n-by-n matrix, n = p*q."""
    p, q = dims
    n = mat.order
    if p < 1 or q < 1 or p * q != n:
        raise DimMismatchError(f"order {n} does not factor as {p}*{q}")
    return SparseSymMatrix(n, partial_transpose_entries(mat.entries, dims)).dense()


def _component_blocks(
    adjacent: dict[int, dict], starts: list[int], zero: Real
) -> list[list[list]]:
    """The square block, rows ascending, of each connected component of a
    symmetric pattern, given as row -> {column: nonzero entry}, that holds a
    row of starts, in order of the first such row; each block is filled
    from its rows' entries with zero elsewhere.  Entry x is stored as
    zero + x: x for 0, float(x) for 0.0, but 0.0 for a Fraction that
    float() makes -0.0."""
    blocks = []
    where = {}  # row -> its index in its block; every row the walks reached
    for start in starts:
        if start in where:
            continue
        where[start] = 0
        rows = [start]
        for r in rows:  # rows grows as the walk reaches new neighbours
            for c in adjacent[r]:
                if c not in where:
                    where[c] = 0
                    rows.append(c)
        rows.sort()
        for i, r in enumerate(rows):
            where[r] = i
        block = []
        for r in rows:
            row = [zero] * len(rows)
            for c, x in adjacent[r].items():
                row[where[c]] = zero + x
            block.append(row)
        blocks.append(block)
    return blocks


def _dense_blocks(entries: Mapping[tuple[int, int], Real], zero: Real) -> list[list[list]]:
    """The blocks of every connected component of the nonzero pattern of a
    checked symmetric matrix, in order of least row, as _component_blocks
    fills them; a row with no nonzero entry is in none."""
    adjacent = {}
    for (r, c), x in entries.items():
        if x:
            adjacent.setdefault(r, {})[c] = x
    return _component_blocks(adjacent, sorted(adjacent), zero)


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
    """Exact positive semidefiniteness of a matrix with int or Fraction
    entries: they are cleared with the positive lcm of their denominators,
    which cannot change definiteness, and tested by is_psd_integral."""
    entries = mat.entries
    scale = math.lcm(*(x.denominator for x in entries.values()))
    if scale > 1:
        entries = {k: x.numerator * (scale // x.denominator) for k, x in entries.items()}
    return is_psd_integral(entries)


def is_psd_integral(entries: Mapping[tuple[int, int], int]) -> bool:
    """Exact positive semidefiniteness of the checked symmetric matrix whose
    nonzero integer entries are given by 0-based (row, column).

    Two rules read the sign pattern and the row sums, in one pass over the
    entries, and decide most matrices without elimination; both hold for
    every symmetric matrix.  A row with no entry sums to 0.

    1. Every off-diagonal entry <= 0 and every row sum >= 0: PSD.  Each
       diagonal entry is then at least the sum of its row's off-diagonal
       magnitudes, so every Gershgorin disc lies in [0, inf).
    2. The entries sum to 0 and some row sum is nonzero: not PSD.  For a
       PSD A, 1^T A 1 = |A^(1/2) 1|^2 = 0 forces A 1 = 0.

    Otherwise the matrix is the direct sum of its blocks on the connected
    components of its nonzero pattern, so each block, a 1-by-1 one too, is
    tested on its own by fraction-free symmetric elimination.  Pivoting runs
    in row order: a negative pivot refutes PSD, a zero pivot with a nonzero
    residual row refutes PSD, and a zero row is dropped.  Updates use the
    Bareiss rule (d*a[i][j] - a[i][k]*a[k][j]) / prev so intermediates stay
    integers.
    """
    sums = {}  # row -> row sum, for the rows that have an entry
    get = sums.get
    z_matrix = True  # no positive off-diagonal entry seen
    for (r, c), x in entries.items():
        sums[r] = get(r, 0) + x
        if x > 0 and r != c:
            z_matrix = False
    if z_matrix and min(sums.values(), default=0) >= 0:
        return True
    if not sum(sums.values()) and any(sums.values()):
        return False
    return all(map(_bareiss_psd, _dense_blocks(entries, 0)))


def _tridiagonal(a: list[list[float]]) -> tuple[list[float], list[float]]:
    """Diagonal d and off-diagonal e (e[i] joins d[i] and d[i+1]) of a
    tridiagonal matrix similar to the symmetric a, by Householder
    reflections that clear a's rows from the last up; no vectors are kept.

    Each row is read only in its first len(a) columns, so the column left
    stale when a row is dropped is never copied away.
    """
    d, e = [], []
    while len(a) > 1:
        last = a.pop()
        x = last[: len(a)]
        d.append(last[len(a)])
        sigma = sum(map(operator.mul, x, x))
        if sigma == x[-1] * x[-1]:  # x is along its last axis already: no reflection
            e.append(x[-1])
            continue
        alpha = -math.copysign(math.sqrt(sigma), x[-1])
        h = sigma - alpha * x[-1]  # half of |v|^2, v = x minus alpha on the last axis
        x[-1] -= alpha
        p = [sum(map(operator.mul, row, x)) / h for row in a]
        k = sum(map(operator.mul, x, p)) / (2.0 * h)
        w = [pi - k * vi for pi, vi in zip(p, x)]
        a = [
            [t - vi * wj - wi * vj for t, vj, wj in zip(row, x, w)]
            for row, vi, wi in zip(a, x, w)
        ]
        e.append(alpha)
    d.append(a[0][0])
    return d, e


def _ql(d: list[float], e: list[float]) -> list[float]:
    """Eigenvalues of the symmetric tridiagonal (d, e) by QL with implicit
    Wilkinson shifts; past QL_MAX_ITERATIONS on one eigenvalue it raises
    NoConvergenceError."""
    n = len(d)
    e.append(0.0)
    for l in range(n):
        iterations = 0
        while True:
            m = l
            while m < n - 1 and abs(e[m]) > _EPS * (abs(d[m]) + abs(d[m + 1])):
                m += 1
            if m == l:
                break
            if iterations == QL_MAX_ITERATIONS:
                raise NoConvergenceError(f"QL stopped after {iterations} iterations")
            iterations += 1
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            g = d[m] - d[l] + e[l] / (g + math.copysign(math.hypot(g, 1.0), g))
            s, c, p = 1.0, 1.0, 0.0
            for i in range(m - 1, l - 1, -1):
                f, b = s * e[i], c * e[i]
                e[i + 1] = r = math.hypot(f, g)
                if r == 0.0:  # deflated mid-sweep: undo the shift and look again
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s, c = f / r, g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    return d


def float_definite(entries: Mapping[tuple[int, int], Real], n: int, shift: float) -> bool:
    """Whether the symmetric n-by-n matrix whose nonzero entries are given
    by 0-based (row, column), plus shift times the identity, is positive
    definite in float: whether left-looking Cholesky of each block's floats
    keeps every pivot > 0.0.  A NaN pivot fails, and an empty row is the
    pivot shift itself.  Cholesky's backward error is of order n*u*|A|
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10)."""
    _check_entries(entries, n)
    blocks = _dense_blocks(entries, 0.0)
    if not shift > 0.0 and sum(map(len, blocks)) < n:
        return False
    for a in blocks:
        factor = []  # rows of the lower factor, row j holding j + 1 entries
        for i, row in enumerate(a):
            li = []
            for j, lj in enumerate(factor):  # map stops at li's j entries
                li.append((row[j] - sum(map(operator.mul, li, lj))) / lj[j])
            pivot = row[i] + shift - sum(map(operator.mul, li, li))
            if not pivot > 0.0:
                return False
            li.append(math.sqrt(pivot))
            factor.append(li)
    return True


def _twin_quotient(a: list[list[float]], values: list[float]) -> list[list[float]]:
    """The block a with each class of twin rows merged into one row; the
    eigenvalues the merging takes out are appended to values.

    Rows u and v are twins when they have equal diagonal d and agree outside
    their own 2x2 block.  Twinship is an equivalence, and all pairs of one
    class share the entry t of that block (0 for false twins, as a star's
    leaves), so a row joins a class when it is a twin of the class's least
    row.  Each e_u - e_v within a class is an eigenvector for d - t, and the
    class indicator scaled to unit length spans the rest: a class of k rows
    becomes one row with diagonal d + (k - 1) t and its entry with a class
    of k' rows times sqrt(k) sqrt(k') (equitable partitions; Godsil and Royle,
    Algebraic Graph Theory, ch. 9).  A block without twins is returned as
    it is.  Each row is compared, as a whole list, with the least row of each
    class on its diagonal: at most k^3 / 2 float comparisons on k rows, in C,
    against the k^3 Python float operations of Householder reduction.
    """
    by_diagonal = {}  # diagonal entry -> its classes, each a list of rows ascending
    for u, row in enumerate(a):
        classes = by_diagonal.setdefault(row[u], [])
        for c in classes:
            r = c[0]
            x, y = row.copy(), a[r].copy()
            x[u] = x[r] = y[u] = y[r] = 0.0
            if x == y:
                c.append(u)
                break
        else:
            classes.append([u])
    if sum(map(len, by_diagonal.values())) == len(a):
        return a
    classes = sorted(c for cs in by_diagonal.values() for c in cs)
    leads = [c[0] for c in classes]
    roots = [math.sqrt(len(c)) for c in classes]
    quotient = []
    for c, root in zip(classes, roots):
        row = a[c[0]]
        merged = [root * other * row[r] for r, other in zip(leads, roots)]
        if len(c) > 1:
            d, t = row[c[0]], row[c[1]]
            values += [d - t] * (len(c) - 1)
            merged[len(quotient)] = d + (len(c) - 1) * t
        quotient.append(merged)
    return quotient


def _block_eigenvalues(a: list[list[float]], values: list[float]) -> None:
    """Append the eigenvalues of one dense symmetric float block to values.

    The twin rows of a block of three or more rows are deflated exactly
    first (_twin_quotient).  What is left is its own eigenvalue when it has
    one row, and otherwise goes to Householder reduction and QL.
    """
    if len(a) > 2:  # QL solves two rows faster than they are searched for twins
        a = _twin_quotient(a, values)
    values += [a[0][0]] if len(a) == 1 else _ql(*_tridiagonal(a))


def eigenvalues_sym(entries: Mapping[tuple[int, int], Real], n: int) -> list[float]:
    """All n eigenvalues, ascending, of the symmetric n-by-n matrix whose
    nonzero entries are given by 0-based (row, column).

    The matrix is the direct sum of its blocks on the connected components
    of its nonzero pattern, so each block's floats are solved on their own
    (_block_eigenvalues) and an empty row contributes exactly 0.0.
    """
    _check_entries(entries, n)
    blocks = _dense_blocks(entries, 0.0)
    values = [0.0] * (n - sum(map(len, blocks)))
    for a in blocks:
        _block_eigenvalues(a, values)
    return sorted(values)
