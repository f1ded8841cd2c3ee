"""Exact linear algebra over Fraction entries."""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np


def as_fraction(value):
    """Convert an int, a string like '-3/4', or a Fraction to a Fraction.

    Floats are rejected on purpose: everything in this package is exact, and a
    float slipping in here would silently poison that. Rationalize floats
    explicitly (see approx.svd_truncate) before they reach this layer.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in {value!r}") from exc
    raise TypeError(
        f"expected int, fraction string, or Fraction, got {type(value).__name__}"
    )


def fraction_vector(entries):
    """Build a 1-d object array of Fractions."""
    entries = list(entries)
    vec = np.empty(len(entries), dtype=object)
    for i, e in enumerate(entries):
        vec[i] = as_fraction(e)
    return vec


def fraction_matrix(rows):
    """Build a 2-d object array of Fractions from nested sequences."""
    if isinstance(rows, np.ndarray) and rows.ndim == 2:
        rows = rows.tolist()
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        raise ValueError("matrix must have at least one row and one column")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise ValueError("rows have unequal lengths")
    mat = np.empty((len(rows), n), dtype=object)
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            mat[i, j] = as_fraction(e)
    return mat


def max_abs_entry(matrix):
    """Largest absolute value of any entry, as a Fraction."""
    return Fraction(max(abs(e) for e in np.asarray(matrix).flat))


def pivot(rows, r, col):
    """One exact Gauss-Jordan step on a list of Fraction row lists, in place.

    Scales row r so its col entry is 1, then clears col from every other row.
    Changed rows are replaced by new lists, never mutated, so a reference to
    an earlier row stays valid. This is the package's only elimination
    kernel: rank, solve, rank factorization, the simplex and the vertex walk
    differ only in how they choose (r, col).

    A changed row is updated only on the columns where the scaled pivot row
    is nonzero; elsewhere a - f * 0 == a, so the result is the same as the
    full-width update. Slack, artificial and block-diagonal columns make
    those zero columns most of a tableau.
    """
    prow = rows[r]
    p = prow[col]
    if p != 1:
        rows[r] = prow = [e / p if e else e for e in prow]
    support = [(j, b) for j, b in enumerate(prow) if b]
    for i, row in enumerate(rows):
        if i != r:
            f = row[col]
            if f != 0:
                row = row[:]
                for j, b in support:
                    row[j] -= f * b
                rows[i] = row


def _peel(rows):
    """Canonical rank-one peel of a list of Fraction row lists, consumed.

    Columns are scanned left to right, and in each the first remaining row
    with a nonzero entry is the pivot. Rows are never swapped, and each pivot
    row leaves the list after its step, so the list always holds the
    residual of the peel so far. Returns one pair (u, v) per pivot: u is the
    pivot column of the residual taken before the step, with 0 on the rows
    already peeled, and v is the pivot row divided by the pivot. The pair
    count is the rank.
    """
    m = len(rows)
    left = list(range(m))  # original index of each remaining row
    pairs = []
    for col in range(len(rows[0])):
        for k, row in enumerate(rows):
            if row[col] != 0:
                u = [Fraction(0)] * m
                for i, rest in zip(left, rows):
                    u[i] = rest[col]
                pivot(rows, k, col)
                pairs.append((u, rows.pop(k)))
                del left[k]
                break
    return pairs


def matrix_rank(matrix):
    """Exact rank via Gauss-Jordan elimination over the rationals."""
    return len(_peel(fraction_matrix(matrix).tolist()))


def solve_linear_system(a, b):
    """Solve the square system a x = b exactly.

    Returns a tuple of Fractions, or None when the system has no unique
    solution (singular matrix, whether inconsistent or underdetermined).
    """
    a = fraction_matrix(a)
    n, nc = a.shape
    if n != nc:
        raise ValueError("coefficient matrix must be square")
    b = fraction_vector(b)
    if len(b) != n:
        raise ValueError("right-hand side length does not match")
    rows = [ra + [rb] for ra, rb in zip(a.tolist(), b.tolist())]
    for col in range(n):
        for r in range(col, n):
            if rows[r][col] != 0:
                break
        else:
            return None
        rows[col], rows[r] = rows[r], rows[col]
        pivot(rows, col, col)
    return tuple(row[n] for row in rows)


@dataclass(frozen=True)
class RankFactorization:
    """Sum-of-outer-products form C = sum of u v^T over the stored pairs.

    The number of pairs equals the exact rank. `nonnegative` records whether
    every entry of every u and v is >= 0, which is what the relative
    approximation scheme needs from its input.
    """

    shape: tuple[int, int]
    pairs: tuple[tuple[tuple[Fraction, ...], tuple[Fraction, ...]], ...]
    nonnegative: bool

    @property
    def rank(self):
        return len(self.pairs)

    def matrix(self):
        m, n = self.shape
        total = np.full((m, n), Fraction(0), dtype=object)
        for u, v in self.pairs:
            total = total + np.outer(fraction_vector(u), fraction_vector(v))
        return total


def rank_factorize(matrix):
    """Canonical rank factorization by iterated rank-one peeling.

    Each step takes the first nonzero entry of the residual in column order
    as pivot and peels the rank-one product (pivot column) x (pivot row /
    pivot). Each pair is scaled so the first nonzero entry of its u, which is
    the pivot itself, is positive. The pair count always equals matrix_rank
    of the input.
    """
    mat = fraction_matrix(matrix)
    pairs = []
    for u, v in _peel(mat.tolist()):
        if next(e for e in u if e != 0) < 0:
            u = [-e for e in u]
            v = [-e for e in v]
        pairs.append((tuple(u), tuple(v)))
    nonneg = all(e >= 0 for u, v in pairs for e in (*u, *v))
    return RankFactorization(shape=mat.shape, pairs=tuple(pairs), nonnegative=nonneg)
