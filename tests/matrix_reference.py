"""SparseSymMatrix's entry check as it was before each entry was checked
once: a type pass over every value by isinstance, then a range and mirror
pass that compares every entry, diagonal ones too, with its mirror.  The
differential test in test_matrix.py holds SparseSymMatrix to it."""

from __future__ import annotations

from fractions import Fraction

from graphsep.errors import DimMismatchError, NotSymmetricError


def _as_exact(x):
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"exact entry expected (int or Fraction), got {type(x).__name__}")


def _check_entries(entries, n: int) -> None:
    for (r, c), x in entries.items():
        if not (0 <= r < n and 0 <= c < n):
            raise DimMismatchError(f"entry ({r},{c}) outside order {n}")
        if entries.get((c, r), 0) != x:
            raise NotSymmetricError(f"entries ({r},{c}) and ({c},{r}) differ")


def check_sparse_entries(order: int, entries) -> None:
    """Raise what the two-pass check raised on these entries, or nothing."""
    entries = dict(entries)
    for x in entries.values():
        _as_exact(x)
    _check_entries(entries, order)
