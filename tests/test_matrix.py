from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsep.errors import (
    DimMismatchError,
    NotDensityError,
    NotSymmetricError,
)
from graphsep.matrix import (
    SymMatrix,
    add,
    block,
    eigenvalues_sym,
    exact_str,
    float12,
    identity,
    is_psd_exact,
    kron,
    line_sum_symmetric,
    partial_transpose,
    purity,
    quadratic_form,
)


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


def test_from_rows_rejects_floats():
    with pytest.raises(TypeError):
        SymMatrix.from_rows([[0.5, 0], [0, 0.5]])


def test_from_rows_accepts_fractions():
    m = SymMatrix.from_rows([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    assert m.trace() == 1


def test_exact_str():
    assert exact_str(Fraction(3, 8)) == "3/8"
    assert exact_str(Fraction(-5, 32)) == "-5/32"
    assert exact_str(2) == "2"
    assert exact_str(Fraction(0)) == "0"


def test_float12_stable():
    assert float12(0.1 + 0.2) == 0.3
    assert float12(Fraction(1, 3)) == 0.333333333333


def test_basic_accessors():
    m = SymMatrix(((2, -1), (-1, 2)))
    assert m.order == 2
    assert m.trace() == 4
    assert m.diagonal() == (2, 2)
    assert m.row_sums() == (1, 1)
    assert m.scaled(Fraction(1, 2)).rows[0] == (1, Fraction(-1, 2))
    assert m.to_floats() == [[2.0, -1.0], [-1.0, 2.0]]


def test_add_checks_order():
    with pytest.raises(DimMismatchError):
        add(identity(2), identity(3))
    assert add(identity(2), identity(2)) == SymMatrix(((2, 0), (0, 2)))


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
        partial_transpose(identity(4), (3, 2))


@settings(max_examples=60)
@given(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]), st.data())
def test_partial_transpose_involution_trace_diagonal(dims, data):
    p, q = dims
    m = data.draw(sym_ints(p * q))
    pt = partial_transpose(m, dims)
    assert partial_transpose(pt, dims) == m
    assert pt.trace() == m.trace()
    assert pt.diagonal() == m.diagonal()


def test_block_extracts_and_validates():
    assert block(STAR_LAPLACIAN, (2, 2), 1, 2) == ((-1, -1), (0, 0))
    assert block(STAR_LAPLACIAN, (2, 2), 2, 2) == ((1, 0), (0, 1))
    with pytest.raises(DimMismatchError):
        block(STAR_LAPLACIAN, (2, 2), 3, 1)


def test_line_sum_symmetric():
    assert line_sum_symmetric(((0, -1), (-1, 0)))
    assert line_sum_symmetric(identity(3))
    assert not line_sum_symmetric(((-1, -1), (0, 0)))
    with pytest.raises(DimMismatchError):
        line_sum_symmetric(((1, 2, 3), (4, 5, 6)))


def test_psd_known_cases():
    assert is_psd_exact(SymMatrix(((1, -1), (-1, 1))))
    assert is_psd_exact(identity(3))
    assert is_psd_exact(SymMatrix(((0, 0), (0, 0))))
    assert not is_psd_exact(SymMatrix(((0, 1), (1, 0))))
    assert not is_psd_exact(SymMatrix(((1, 2), (2, 1))))
    assert not is_psd_exact(SymMatrix(((-1,),)))


def test_psd_zero_pivot_with_nonzero_row():
    # leading 0 diagonal but nonzero coupling cannot be PSD
    assert not is_psd_exact(SymMatrix(((0, 1), (1, 5))))


def test_psd_handles_fractions():
    assert is_psd_exact(SymMatrix.from_rows([[Fraction(1, 2), Fraction(-1, 2)],
                                             [Fraction(-1, 2), Fraction(1, 2)]]))
    assert not is_psd_exact(
        SymMatrix.from_rows([[Fraction(1, 3), 1], [1, Fraction(1, 3)]])
    )


@settings(max_examples=80)
@given(sym_ints(4))
def test_psd_agrees_with_float_eigenvalues(m):
    eigs = np.linalg.eigvalsh(np.array(m.to_floats()))
    if eigs.min() > 1e-8:
        assert is_psd_exact(m)
    elif eigs.min() < -1e-8:
        assert not is_psd_exact(m)


def test_eigenvalues_small_cases():
    assert eigenvalues_sym(SymMatrix(())) == []
    assert eigenvalues_sym(SymMatrix(((5,),))) == [5.0]
    got = eigenvalues_sym(SymMatrix(((3, 0), (0, -2))))
    assert got == [-2.0, 3.0]
    half = Fraction(1, 2)
    got = eigenvalues_sym(SymMatrix.from_rows([[half, -half], [-half, half]]))
    assert got[0] == pytest.approx(0.0, abs=1e-12)
    assert got[1] == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60)
@given(sym_ints(5))
def test_eigenvalues_match_numpy(m):
    got = eigenvalues_sym(m)
    want = sorted(np.linalg.eigvalsh(np.array(m.to_floats())))
    assert got == pytest.approx(want, abs=1e-9)


def test_quadratic_form_exact():
    m = SymMatrix(((1, -1), (-1, 1)))
    assert quadratic_form(m, (Fraction(1, 2), Fraction(1, 3))) == Fraction(1, 36)
    assert quadratic_form(m, (1, 1)) == 0
    with pytest.raises(DimMismatchError):
        quadratic_form(m, (1, 2, 3))


def test_purity():
    half = Fraction(1, 2)
    assert purity(SymMatrix.from_rows([[half, 0], [0, half]])) == half
    assert purity(SymMatrix.from_rows([[half, -half], [-half, half]])) == 1
    with pytest.raises(NotDensityError):
        purity(identity(2))


@settings(max_examples=40)
@given(sym_ints(2), sym_ints(3))
def test_kron_matches_numpy(a, b):
    got = np.array(kron(a, b).to_floats())
    want = np.kron(np.array(a.to_floats()), np.array(b.to_floats()))
    assert np.array_equal(got, want)
