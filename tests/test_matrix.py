import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_array
from scipy.sparse.csgraph import connected_components

import graphsep.matrix
from matrix_reference import check_sparse_entries
from graphsep.errors import (
    DimMismatchError,
    NoConvergenceError,
    NotSymmetricError,
)
from graphsep.graphs import Dims, complete_graph, laplacian_entries, star_graph
from graphsep.matrix import (
    SparseSymMatrix,
    _bareiss_psd,
    _dense_blocks,
    SymMatrix,
    add,
    eigenvalues_sym,
    exact_str,
    float12,
    float_definite,
    is_psd_exact,
    is_psd_integral,
    kron,
    partial_transpose,
    partial_transpose_entries,
)
from graphsep.report import analyze, spectrum


def sym_ints(n, lo=-4, hi=4):
    """Strategy for n-by-n symmetric integer matrices."""

    def build(vals):
        rows = [[0] * n for _ in range(n)]
        it = iter(vals)
        for r in range(n):
            for c in range(r, n):
                rows[r][c] = rows[c][r] = next(it)
        return SymMatrix(tuple(tuple(row) for row in rows))

    count = n * (n + 1) // 2
    return st.lists(
        st.integers(min_value=lo, max_value=hi), min_size=count, max_size=count
    ).map(build)


def test_rejects_non_square():
    with pytest.raises(DimMismatchError):
        SymMatrix(((1, 2),))


def test_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        SymMatrix(((0, 1), (2, 0)))


def test_exact_str():
    assert exact_str(Fraction(3, 8)) == "3/8"
    assert exact_str(Fraction(-5, 32)) == "-5/32"
    assert exact_str(2) == "2"
    assert exact_str(Fraction(0)) == "0"
    # an int or a Fraction prints itself, anything else through Fraction
    for x in (0, 7, -12, Fraction(3, 8), Fraction(-5, 32), Fraction(6, 3),
              Fraction(-4, 2), True, False, 0.5):
        assert exact_str(x) == str(Fraction(x)), x


def test_float12_stable():
    assert float12(0.1 + 0.2) == 0.3
    assert float12(Fraction(1, 3)) == 0.333333333333


def test_basic_accessors():
    m = SymMatrix(((2, -1), (-1, 2)))
    assert m.order == 2
    assert m.scaled(Fraction(1, 2)).rows[0] == (1, Fraction(-1, 2))


def test_add_checks_order():
    eye = SymMatrix(((1, 0), (0, 1)))
    with pytest.raises(DimMismatchError):
        add(eye, SymMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1))))
    assert add(eye, eye) == SymMatrix(((2, 0), (0, 2)))


STAR_LAPLACIAN = SymMatrix(
    (
        (3, -1, -1, -1),
        (-1, 1, 0, 0),
        (-1, 0, 1, 0),
        (-1, 0, 0, 1),
    )
)


def test_partial_transpose_known_rows():
    pt = partial_transpose(STAR_LAPLACIAN, (2, 2))
    assert pt.rows[2] == (-1, -1, 1, 0)
    assert pt.rows == (
        (3, -1, -1, 0),
        (-1, 1, -1, 0),
        (-1, -1, 1, 0),
        (0, 0, 0, 1),
    )


def test_partial_transpose_rejects_bad_factorization():
    with pytest.raises(DimMismatchError):
        partial_transpose(SymMatrix(((0,) * 4,) * 4), (3, 2))


@settings(max_examples=60)
@given(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]), st.data())
def test_partial_transpose_involution_trace_diagonal(dims, data):
    p, q = dims
    m = data.draw(sym_ints(p * q))
    pt = partial_transpose(m, dims)
    assert partial_transpose(pt, dims) == m
    assert [pt.rows[i][i] for i in range(p * q)] == [m.rows[i][i] for i in range(p * q)]


@st.composite
def grid_entry_maps(draw):
    """A p-by-q grid, p and q in 1..4, and the nonzero entries by 0-based
    (row, column) of a random symmetric integer matrix on its vertices."""
    p, q = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n = p * q
    position = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    drawn = draw(st.dictionaries(position, st.integers(-9, 9).filter(bool), max_size=2 * n))
    entries = {}
    for (r, c), x in drawn.items():
        entries[r, c] = entries[c, r] = x
    return (p, q), entries


@settings(max_examples=200, deadline=None)
@given(grid_entry_maps())
def test_partial_transpose_entries_match_numpy(case):
    # numpy's axis swap is an independent oracle, exact on ints: the entry at
    # ((a, b), (x, y)) moves to ((a, y), (x, b))
    (p, q), entries = case
    n = p * q
    a = np.zeros((n, n), dtype=np.int64)
    for (r, c), x in entries.items():
        a[r, c] = x
    want = a.reshape(p, q, p, q).transpose(0, 3, 2, 1).reshape(n, n)
    pt = partial_transpose_entries(entries, (p, q))
    assert pt == {(int(r), int(c)): int(want[r, c]) for r, c in zip(*np.nonzero(want))}
    assert partial_transpose_entries(pt, (p, q)) == entries
    dense = SymMatrix(tuple(tuple(int(x) for x in row) for row in a))
    assert partial_transpose(dense, (p, q)) == SparseSymMatrix(n, pt).dense()


def _partial_transpose_by_divmod(entries, dims):
    q = dims[1]
    out = {}
    for (r, c), x in entries.items():
        (a, b), (s, t) = divmod(r, q), divmod(c, q)
        out[a * q + t, s * q + b] = x
    return out


@settings(max_examples=200, deadline=None)
@given(grid_entry_maps())
def test_partial_transpose_entries_match_the_divmod_form(case):
    # the remainder form moves each entry where the coordinate form did,
    # in the same order
    dims, entries = case
    want = _partial_transpose_by_divmod(entries, dims)
    assert list(partial_transpose_entries(entries, dims).items()) == list(want.items())


def test_psd_known_cases():
    assert is_psd_exact(SymMatrix(((1, -1), (-1, 1))))
    assert is_psd_exact(SymMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 1))))
    assert is_psd_exact(SymMatrix(((0, 0), (0, 0))))
    assert not is_psd_exact(SymMatrix(((0, 1), (1, 0))))
    assert not is_psd_exact(SymMatrix(((1, 2), (2, 1))))
    assert not is_psd_exact(SymMatrix(((-1,),)))


def test_psd_zero_pivot_with_nonzero_row():
    # leading 0 diagonal but nonzero coupling cannot be PSD
    assert not is_psd_exact(SymMatrix(((0, 1), (1, 5))))


def test_psd_handles_fractions():
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert is_psd_exact(SymMatrix(((half, -half), (-half, half))))
    assert not is_psd_exact(SymMatrix(((third, 1), (1, third))))


def test_dense_matrix_refuses_inexact_entries():
    # every entry is checked, zeros included, as SparseSymMatrix checks its
    # own, so is_psd_exact never meets a float or a bool
    for rows, name in ((((0.5, True), (True, 2)), "float"), (((1, 0.0), (0.0, 1)), "float"),
                       (((False, 0), (0, 1)), "bool")):
        with pytest.raises(TypeError, match=f"got {name}$"):
            SymMatrix(rows)


def test_sparse_matrix_validates_entries():
    half = Fraction(1, 2)
    m = SparseSymMatrix(3, {(0, 0): half, (0, 2): -half, (2, 0): -half, (2, 2): half})
    assert m.dense().rows == ((half, 0, -half), (0, 0, 0), (-half, 0, half))
    assert m.entries == SymMatrix(m.dense().rows).entries
    twin = SparseSymMatrix(3, dict(m.entries))
    assert m == twin and hash(m) == hash(twin)
    with pytest.raises(DimMismatchError):
        SparseSymMatrix(2, {(-1, -1): 1})
    with pytest.raises(NotSymmetricError):
        SparseSymMatrix(2, {(0, 1): 1, (1, 0): 2})
    with pytest.raises(TypeError):
        SparseSymMatrix(1, {(0, 0): 0.5})
    # an order below 0 holds no matrix; order 0 holds the empty one
    with pytest.raises(DimMismatchError, match="^order -1 is negative$"):
        SparseSymMatrix(-1, {})
    assert SparseSymMatrix(0, {}).order == 0
    source = {(0, 0): 1}
    m = SparseSymMatrix(2, source)
    source[5, 5] = 1
    assert m.entries == {(0, 0): 1}


class _Int(int):
    pass


class _Fraction(Fraction):
    pass


@st.composite
def entry_maps(draw):
    """An order and an entry map that mixes ints and Fractions, mirrors that
    are one object or equal distinct ones, and, when drawn, faults: floats,
    bools, subclasses, keys off the grid and mirrors that differ, several
    to a map."""
    n = draw(st.integers(0, 4))
    values = st.one_of(
        st.integers(-3, 3),
        st.fractions(min_value=-2, max_value=2, max_denominator=4),
    )
    entries = {}
    for _ in range(draw(st.integers(0, 6))):
        r, c = draw(st.integers(-1, n)), draw(st.integers(-1, n))
        x = draw(values)
        entries[r, c] = x
        mirror = draw(st.sampled_from(["same", "equal", "none", "other"]))
        if mirror == "same":
            entries[c, r] = x
        elif mirror == "equal":  # an equal value, but a distinct object
            entries[c, r] = Fraction(x) if type(x) is int else Fraction(x.numerator, x.denominator)
        elif mirror == "other":
            entries[c, r] = draw(values)
    faulty = st.sampled_from([0.5, 1.0, 0.0, float("nan"), "1", None, True, False,
                              _Int(1), _Fraction(1, 2)])
    for key in draw(st.lists(st.sampled_from(sorted(entries) or [(0, 0)]), max_size=2)):
        entries[key] = draw(faulty)
    return n, entries


def _outcome(check, *args):
    try:
        check(*args)
    except Exception as exc:  # the type and message are the outcome
        return type(exc), str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(entry_maps())
def test_sparse_matrix_check_matches_two_pass_reference(case):
    # SparseSymMatrix checks each entry once; it must accept what the
    # two-pass reference accepts and raise what it raises, except that an
    # entry that is not exactly an int or a Fraction, such as a bool or a
    # subclass, is now refused by type
    n, entries = case
    got = _outcome(SparseSymMatrix, n, entries)
    inexact = [x for x in entries.values() if type(x) not in (int, Fraction)]
    if any(isinstance(x, (int, Fraction)) for x in inexact):
        want = (TypeError, f"exact entry expected (int or Fraction), got {type(inexact[0]).__name__}")
    else:
        want = _outcome(check_sparse_entries, n, entries)
    assert got == want


def test_sparse_matrix_refuses_bools_and_subclasses():
    # the two-pass reference took a bool as the int 1 and a subclass as its
    # base; both are refused now, as weights, dims and coordinates are
    for x in (True, False, _Int(1), _Fraction(1, 2)):
        check_sparse_entries(2, {(0, 0): x})
        with pytest.raises(TypeError, match=type(x).__name__):
            SparseSymMatrix(2, {(0, 0): x})
    # a type error outranks any range or mirror error, wherever it is
    with pytest.raises(TypeError, match="bool"):
        SparseSymMatrix(2, {(5, 5): 1, (0, 1): 1, (1, 1): True})
    # the order too is exactly an int, checked before any entry: a float
    # order would pass revalidation and fail only when rendered
    for order in (1.0, True, _Int(1)):
        with pytest.raises(TypeError, match=f"^int order expected, got {type(order).__name__}$"):
            SparseSymMatrix(order, {(0, 0): 0.5})
    # equal distinct mirrors are compared; the same object is not
    half = Fraction(1, 2)
    assert SparseSymMatrix(2, {(0, 1): half, (1, 0): Fraction(1, 2)}).entries[1, 0] == half
    with pytest.raises(NotSymmetricError):
        SparseSymMatrix(2, {(0, 1): half, (1, 0): Fraction(-1, 2)})


@st.composite
def symmetric_patterns(draw):
    """An entry map by 0-based (row, column) of a symmetric matrix of up to
    12 rows, with explicit zeros, and its zero: exact entries with 0, or
    float entries with 0.0 as on the eigenvalue path."""
    n = draw(st.integers(0, 12))
    floats = draw(st.booleans())
    if floats:
        value = st.floats(-3, 3, allow_nan=False)
    else:
        value = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=5))
    cells = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    entries = {}
    for r, c in draw(st.lists(cells, max_size=2 * n)) if n else ():
        entries[r, c] = entries[c, r] = draw(value)
    return entries, n, 0.0 if floats else 0


def connected_rows(entries, n) -> list[list[int]]:
    """Oracle: the rows of each connected component of the nonzero pattern,
    by scipy, ascending, in order of least row; rows with no nonzero entry
    are left out."""
    pattern = [k for k, x in entries.items() if x]
    if not pattern:
        return []
    rows, cols = zip(*pattern)
    graph = coo_array(([1] * len(pattern), (rows, cols)), shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    comps = {}
    for v in sorted(set(rows)):
        comps.setdefault(labels[v], []).append(v)
    return list(comps.values())


@settings(max_examples=300, deadline=None)
@given(symmetric_patterns())
@example(({}, 0, 0))
@example(({}, 4, 0.0))
@example(({(0, 1): 0, (1, 0): 0, (2, 2): 0}, 3, 0))
@example(({(2, 2): 1, (0, 1): 5, (1, 0): 5}, 3, 0))
def test_dense_blocks_match_scipy_components(case):
    entries, n, zero = case
    comps = connected_rows(entries, n)

    def block(rows, values):
        return [[values[r, c] if values.get((r, c)) else zero for c in rows] for r in rows]

    assert _dense_blocks(entries, zero) == [block(rows, entries) for rows in comps]
    # a value unique to each unordered pair pins the block order and each
    # block's row order, which equal entries could leave open
    labels = {(r, c): n * min(r, c) + max(r, c) + 1 for (r, c), x in entries.items() if x}
    assert _dense_blocks(labels, zero) == [block(rows, labels) for rows in comps]


def fraction_psd(rows) -> bool:
    """Reference: symmetric Gaussian elimination over Fraction, in row order."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    for k in range(n):
        d = a[k][k]
        if d < 0:
            return False
        if d == 0:
            if any(a[k][j] for j in range(k + 1, n)):
                return False
            continue
        for i in range(k + 1, n):
            f = a[i][k] / d
            for j in range(k + 1, n):
                a[i][j] -= f * a[k][j]
    return True


def whole_matrix_bareiss_psd(rows) -> bool:
    """Reference: fraction-free elimination over the whole matrix at once, as
    is_psd_exact ran before it split the matrix into blocks."""
    n = len(rows)
    scale = 1
    for row in rows:
        for x in row:
            if isinstance(x, Fraction):
                scale = math.lcm(scale, x.denominator)
    a = [[int(x * scale) for x in row] for row in rows]
    prev = 1
    for k in range(n):
        d = a[k][k]
        if d < 0:
            return False
        if d == 0:
            if any(a[k][j] != 0 for j in range(k + 1, n)):
                return False
            continue
        for i in range(k + 1, n):
            aik = a[i][k]
            for j in range(k + 1, n):
                a[i][j] = (d * a[i][j] - aik * a[k][j]) // prev
        prev = d
    return True


@st.composite
def psd_test_matrices(draw):
    """Dense rows of a direct sum of int and Fraction blocks, relabelled by a
    random permutation, with empty rows.  A block is a Gram matrix (PSD,
    often singular) or arbitrary, and may get a zero row or a zero diagonal
    entry that keeps its coupling, the pivots elimination must skip or
    refute."""
    value = st.one_of(
        st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=5)
    )
    sizes = draw(st.lists(st.integers(1, 5), max_size=4))
    empty = draw(st.integers(0, 2))
    n = sum(sizes) + empty
    perm = draw(st.permutations(range(n)))
    rows = [[0] * n for _ in range(n)]
    start = 0
    for k in range(len(sizes)):
        size = sizes[k]
        if draw(st.booleans()):
            rank = draw(st.integers(0, size))
            b = [[draw(value) for _ in range(rank)] for _ in range(size)]
            blk = [[sum(x * y for x, y in zip(u, v)) for v in b] for u in b]
        else:
            blk = [[0] * size for _ in range(size)]
            for r in range(size):
                for c in range(r, size):
                    blk[r][c] = blk[c][r] = draw(value)
        pivot = draw(st.integers(0, size - 1))
        forced = draw(st.sampled_from(["none", "zero-row", "zero-diagonal"]))
        if forced == "zero-row":
            for c in range(size):
                blk[pivot][c] = blk[c][pivot] = 0
        elif forced == "zero-diagonal":
            blk[pivot][pivot] = 0
        for r in range(size):
            for c in range(size):
                rows[perm[start + r]][perm[start + c]] = blk[r][c]
        start += size
    return rows


@settings(max_examples=300, deadline=None)
@given(psd_test_matrices())
def test_psd_matches_exact_references(rows):
    want = fraction_psd(rows)
    assert whole_matrix_bareiss_psd(rows) == want
    dense = SymMatrix(tuple(tuple(row) for row in rows))
    assert is_psd_exact(dense) == want
    assert is_psd_exact(SparseSymMatrix(dense.order, dense.entries)) == want


def test_psd_sparse_known_cases():
    assert is_psd_exact(SparseSymMatrix(0, {}))
    assert is_psd_exact(SparseSymMatrix(5, {}))
    assert not is_psd_exact(SparseSymMatrix(4, {(2, 2): -1}))
    assert not is_psd_exact(SparseSymMatrix(3, {(0, 2): 1, (2, 0): 1, (2, 2): 5}))
    assert not is_psd_exact(
        SparseSymMatrix(2, {(0, 0): Fraction(3, 2), (1, 1): Fraction(-1, 2)})
    )
    # explicit zeros are entries like any other absent one
    assert is_psd_exact(SparseSymMatrix(3, {(0, 1): 0, (1, 0): 0, (2, 2): 1}))


@settings(max_examples=80)
@given(sym_ints(4))
def test_psd_agrees_with_float_eigenvalues(m):
    eigs = np.linalg.eigvalsh(np.array(m.rows, dtype=float))
    if eigs.min() > 1e-8:
        assert is_psd_exact(m)
    elif eigs.min() < -1e-8:
        assert not is_psd_exact(m)


@st.composite
def z_matrices(draw):
    """A case and the entries by 0-based (row, column), with explicit zeros
    and empty rows, of a symmetric integer Z-matrix (every off-diagonal
    entry <= 0) whose row sums s put it in that case: "rule-1" every s >= 0;
    "rule-2" the s total 0 and some s is nonzero; "neither" some s < 0,
    some s > 0 and a nonzero total."""
    case = draw(st.sampled_from(["rule-1", "rule-2", "neither"]))
    n = draw(st.integers(2, 9))
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    entries = {}
    for r, c in draw(st.lists(cells, max_size=2 * n)):
        if r != c:
            entries[r, c] = entries[c, r] = draw(st.integers(-3, 0))
    if case == "rule-1":
        sums = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    else:
        sums = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    if case == "rule-2":
        sums[-1] -= sum(sums)
        if not any(sums):
            sums[0], sums[1] = 1, -1
    elif case == "neither":
        sums[0], sums[1] = -draw(st.integers(1, 3)), draw(st.integers(1, 3))
        # coupled, so row 0's diagonal may be positive and reach elimination
        entries[0, 1] = entries[1, 0] = -draw(st.integers(1, 3))
        if not sum(sums):
            sums[1] += 1
    for r in range(n):
        x = sums[r] - sum(y for (a, b), y in entries.items() if a == r and b != r)
        if x or draw(st.booleans()):
            entries[r, r] = x
    return case, entries, n


def sign_pattern_case(dense) -> str:
    """Which rule of is_psd_integral decides a dense matrix, read off numpy's
    row sums, or "neither"."""
    sums = dense.sum(axis=1)
    off_diagonal = dense - np.diag(np.diag(dense))
    if off_diagonal.max(initial=0) <= 0 and sums.min(initial=0) >= 0:
        return "rule-1"
    if sums.sum() == 0 and sums.any():
        return "rule-2"
    return "neither"


class EliminationSpy:
    """Counts the calls to matrix._bareiss_psd while it is installed."""

    def __init__(self):
        self.calls = 0

    def __call__(self, a):
        self.calls += 1
        return _bareiss_psd(a)


@settings(max_examples=300, deadline=None)
@given(z_matrices())
@example(("rule-1", {}, 3))
@example(("rule-1", {(0, 1): 0, (1, 0): 0, (1, 1): 0}, 2))
def test_psd_rules_match_elimination_and_numpy(case):
    want_case, entries, n = case
    dense = np.zeros((n, n), dtype=np.int64)
    for (r, c), x in entries.items():
        dense[r, c] = x
    assert sign_pattern_case(dense) == want_case
    spy = EliminationSpy()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphsep.matrix, "_bareiss_psd", spy)
        got = is_psd_integral(entries)
        assert is_psd_exact(SparseSymMatrix(n, entries)) == got
    # rows 0 and 1 of a "neither" matrix share the first block
    assert (spy.calls > 0) == (want_case == "neither")
    assert got == all(_bareiss_psd(a) for a in _dense_blocks(entries, 0))
    least = np.linalg.eigvalsh(dense.astype(float)).min()
    if abs(least) > 1e-9:
        assert got == (least > 0)


def test_psd_rules_known_cases():
    lap = laplacian_entries(complete_graph(Dims(3, 3)))
    star_pt = partial_transpose_entries(laplacian_entries(star_graph(Dims(3, 3))), (3, 3))
    spy = EliminationSpy()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphsep.matrix, "_bareiss_psd", spy)
        # rule 1: a Laplacian has row sums 0 and no positive off-diagonal entry
        assert is_psd_integral(lap)
        # rule 2: the star's partial transpose totals 0 with a negative row sum
        assert not is_psd_integral(star_pt)
        assert spy.calls == 0
        # Z-matrices with row sums (-1, 3) and (-2, 3): determinants 1 and -3
        assert is_psd_integral({(0, 0): 1, (0, 1): -2, (1, 0): -2, (1, 1): 5})
        assert not is_psd_integral({(0, 0): 1, (0, 1): -3, (1, 0): -3, (1, 1): 6})
        assert spy.calls == 2
        # a positive off-diagonal entry: row sums 3 and 3, eigenvalues 3 and -1
        assert not is_psd_integral({(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 1})
        assert is_psd_integral({(0, 0): 2, (0, 1): 1, (1, 0): 1, (1, 1): 2})
        # every row sums to 0, but (0, 1) is positive: eigenvalues 0, 1 and 9
        assert is_psd_integral(SymMatrix(((2, 1, -3), (1, 2, -3), (-3, -3, 6))).entries)
        assert spy.calls == 5


def test_eigenvalues_small_cases():
    assert eigenvalues_sym({}, 0) == []
    assert eigenvalues_sym({(0, 0): 5}, 1) == [5.0]
    assert eigenvalues_sym({(0, 0): 3, (1, 1): -2}, 2) == [-2.0, 3.0]
    half = Fraction(1, 2)
    got = eigenvalues_sym({(0, 0): half, (0, 1): -half, (1, 0): -half, (1, 1): half}, 2)
    assert got[0] == pytest.approx(0.0, abs=1e-12)
    assert got[1] == pytest.approx(1.0, abs=1e-12)
    # empty rows contribute exact zeros; the projector sits on rows 0 and 3
    got = eigenvalues_sym({(0, 0): 1, (0, 3): -1, (3, 0): -1, (3, 3): 1}, 5)
    block = eigenvalues_sym({(0, 0): 1, (0, 1): -1, (1, 0): -1, (1, 1): 1}, 2)
    assert got == sorted(block + [0.0] * 3)
    assert got[4] == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(NotSymmetricError):
        eigenvalues_sym({(0, 1): 1, (1, 0): 2}, 2)
    with pytest.raises(DimMismatchError):
        eigenvalues_sym({(0, 2): 1, (2, 0): 1}, 2)


@st.composite
def sparse_block_sym(draw):
    """Sparse symmetric int/Fraction entries of a direct sum of random blocks
    (1-by-1 and empty rows included), relabelled by a random permutation.
    A block is arbitrary, a scaled identity, rank one, a scaled identity
    plus rank one, or planted twins; the last four have highly degenerate
    spectra.  Planted twins are classes of 2-6 rows, each agreeing outside
    its own 2x2 blocks, false (entry 0 within the class) or true, among
    single rows, all scaled by one fraction."""
    value = st.one_of(
        st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=6)
    )
    sizes = draw(st.lists(st.integers(1, 20), max_size=4))
    empty = draw(st.integers(0, 3))
    n = sum(sizes) + empty
    perm = draw(st.permutations(range(n)))
    entries = {}
    start = 0
    for k in sizes:
        kind = draw(st.sampled_from(["arbitrary", "identity", "rank-one", "both", "twins"]))
        if kind == "twins":
            of, m = [], 0  # the class of each row, and the number of classes
            while len(of) < k:
                of += [m] * draw(st.integers(1, min(6, k - len(of))))
                m += 1
            diagonal = [draw(value) for _ in range(m)]
            within = [draw(value) if draw(st.booleans()) else 0 for _ in range(m)]
            between = {(a, b): draw(value) for a in range(m) for b in range(a + 1, m)}
            scale = draw(st.fractions(-4, 4, max_denominator=20).filter(bool))
            block = {}
            for r in range(k):
                for c in range(r, k):
                    a, b = of[r], of[c]
                    x = diagonal[a] if r == c else within[a] if a == b else between[a, b]
                    block[r, c] = scale * x
        elif kind == "arbitrary":
            block = {}
            for r in range(k):
                for c in range(r, k):
                    x = draw(value)
                    if x or draw(st.booleans()):
                        block[r, c] = x
        else:
            shift = draw(value) if kind != "rank-one" else 0
            u = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
            scale = draw(value) if kind != "identity" else 0
            block = {
                (r, c): shift * (r == c) + scale * u[r] * u[c]
                for r in range(k)
                for c in range(r, k)
            }
        for (r, c), x in block.items():
            entries[perm[start + r], perm[start + c]] = x
            entries[perm[start + c], perm[start + r]] = x
        start += k
    return entries, n


# No shrink phase: shrinking examples of up to four 20-row blocks can run into
# Hypothesis's five-minute shrinking limit, so a failure is reported unshrunk.
@settings(
    max_examples=120,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target),
)
@given(sparse_block_sym())
def test_eigenvalues_match_numpy(case):
    entries, n = case
    dense = np.zeros((n, n))
    for (r, c), x in entries.items():
        dense[r, c] = float(x)
    got = eigenvalues_sym(entries, n)
    # exact entries are read as floats, bit for bit
    assert eigenvalues_sym({k: float(x) for k, x in entries.items()}, n) == got
    assert len(got) == n
    assert got == sorted(got)
    assert got == pytest.approx(sorted(np.linalg.eigvalsh(dense)), abs=1e-9)


# A stated margin: away from it numpy's least eigenvalue and Cholesky's
# backward error, both of order n*u*|A| (n <= 83, entries <= 4), cannot
# change the answer.
DEFINITE_MARGIN = 1e-9


# No shrink phase, for the reason given at test_eigenvalues_match_numpy.
@settings(
    max_examples=100,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target),
)
@given(
    sparse_block_sym(),
    st.one_of(st.sampled_from([1e-11, -1e-11, 0.0]), st.floats(-3.0, 3.0)),
)
def test_float_definite_matches_numpy(case, shift):
    entries, n = case
    floats = {k: float(x) for k, x in entries.items()}
    dense = np.zeros((n, n))
    for (r, c), x in floats.items():
        dense[r, c] = x
    least = np.linalg.eigvalsh(dense)[0] if n else math.inf
    got = float_definite(floats, n, shift)
    assert float_definite(entries, n, shift) == got  # exact entries are read as floats
    if abs(least + shift) > DEFINITE_MARGIN:
        assert got == (least + shift > 0)
    if len({r for (r, c), x in floats.items() if x}) < n and shift <= 0:
        assert not got  # an empty row is the eigenvalue 0, at any margin


def test_float_definite_small_cases():
    # an empty matrix is vacuously definite; an empty row is the pivot shift
    assert float_definite({}, 0, -1.0) and float_definite({}, 0, 1e-11)
    assert float_definite({}, 3, 1e-11) and not float_definite({}, 3, -1e-11)
    assert not float_definite({}, 3, 0.0)
    identity = {(r, r): 1.0 for r in (0, 1, 3)}
    assert float_definite(identity, 4, 1e-11)
    assert not float_definite(identity, 4, -1e-11)
    assert float_definite({(r, r): 1.0 for r in range(3)}, 3, -1e-11)
    # two blocks, one of them the projector onto (1, -1) with eigenvalue 0
    half = Fraction(1, 2)
    entries = {(0, 0): half, (0, 2): -half, (2, 0): -half, (2, 2): half, (1, 1): 3}
    assert float_definite(entries, 3, 1e-11)
    assert not float_definite(entries, 3, -1e-11)
    assert not float_definite({**entries, (1, 1): -3}, 3, 1.0)
    # a pivot of exactly 0.0 is not > 0, nor is a NaN one
    assert not float_definite({(0, 0): 1.0}, 1, -1.0)
    ones = {(r, c): 1.0 for r in range(2) for c in range(2)}
    assert not float_definite(ones, 2, 0.0) and float_definite(ones, 2, 0.5)
    assert not float_definite({(0, 0): math.nan}, 1, 1.0)


@pytest.mark.parametrize(
    "entries, n, error",
    [
        ({(0, 1): 1, (1, 0): 2}, 2, NotSymmetricError),
        ({(0, 1): 1.0}, 2, NotSymmetricError),
        ({(0, 2): 1, (2, 0): 1}, 2, DimMismatchError),
        ({(-1, -1): 1.0}, 2, DimMismatchError),
        ({(0, 0): 1.0}, 0, DimMismatchError),
    ],
)
def test_float_definite_refuses_what_eigenvalues_sym_refuses(entries, n, error):
    with pytest.raises(error) as eig:
        eigenvalues_sym(entries, n)
    for shift in (1e-11, -1e-11):
        with pytest.raises(error) as chol:
            float_definite(entries, n, shift)
        assert str(chol.value) == str(eig.value)


@pytest.mark.parametrize(
    "graph, spectrum",
    [
        # K_64: 0 once, 64 with multiplicity 63
        (complete_graph(Dims(8, 8)), [0] + [64] * 63),
        # the star K_(1,15): 0, 1 with multiplicity 14, and 16
        (star_graph(Dims(4, 4)), [0] + [1] * 14 + [16]),
        (star_graph(Dims(2, 16)), [0] + [1] * 30 + [32]),
    ],
    ids=["complete-8x8", "star-4x4", "star-2x16"],
)
def test_eigenvalues_known_laplacian_spectra(graph, spectrum):
    got = eigenvalues_sym(laplacian_entries(graph), graph.n)
    assert got == pytest.approx(spectrum, abs=1e-9)


def test_ql_iteration_cap_raises(monkeypatch):
    entries = {(0, 0): 2, (0, 1): -1, (1, 0): -1, (1, 1): 2, (1, 2): -1, (2, 1): -1, (2, 2): 2}
    root2 = math.sqrt(2)
    assert eigenvalues_sym(entries, 3) == pytest.approx([2 - root2, 2, 2 + root2])
    monkeypatch.setattr(graphsep.matrix, "QL_MAX_ITERATIONS", 0)
    # a diagonal matrix needs no iteration, so the cap is never reached
    assert eigenvalues_sym({(0, 0): 3, (1, 1): -2}, 3) == [-2.0, 0.0, 3.0]
    with pytest.raises(NoConvergenceError, match="QL stopped after 0 iterations"):
        eigenvalues_sym(entries, 3)


def test_twin_deflation_keeps_householder_blocks_small(monkeypatch):
    # A complete graph's Laplacian is one class of true twins; a star's is its
    # hub and one class of false twins, and its partial transpose's block the
    # hub and two.  Without deflation _tridiagonal gets 256 and 15 rows here.
    orders = []
    tridiagonal = graphsep.matrix._tridiagonal

    def recording(a):
        orders.append(len(a))
        return tridiagonal(a)

    monkeypatch.setattr(graphsep.matrix, "_tridiagonal", recording)
    complete = spectrum(complete_graph(Dims(16, 16)))
    spectrum(star_graph(Dims(16, 16)))
    analyze(star_graph(Dims(8, 8)))
    assert orders and max(orders) <= 3
    # degree_sum 65280, and the Laplacian's eigenvalues 0 once and 256
    assert complete["density"] == pytest.approx([0.0] + [1 / 255] * 255, abs=1e-15)


@settings(max_examples=40)
@given(sym_ints(2), sym_ints(3))
def test_kron_matches_numpy(a, b):
    got = np.array(kron(a, b).rows)
    want = np.kron(np.array(a.rows), np.array(b.rows))
    assert np.array_equal(got, want)
