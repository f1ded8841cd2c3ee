"""Exact linear algebra: Fractions at the interface, integer rows inside."""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from numbers import Integral


def _array(rows, writeable=True):
    """The NumPy object array of rows, a list of Fractions or a list of
    equal-length lists of them: the one builder of every array the package
    returns, and, with svd_truncate's float SVD, its one use of NumPy,
    imported on the first call. The views of an immutable value are built
    read-only (writeable=False)."""
    import numpy as np

    arr = np.array(rows, dtype=object)
    arr.flags.writeable = writeable
    return arr


def as_fraction(value):
    """Convert an int (a NumPy integer too), a string like '-3/4', or a
    Fraction to a Fraction.

    Floats are rejected on purpose: everything in this package is exact, and a
    float slipping in here would silently poison that. Rationalize floats
    explicitly (see approx.svd_truncate) before they reach this layer.
    """
    if isinstance(value, Fraction):
        return value
    # the exact-type test first: an isinstance test against Integral, an
    # abstract class, costs several times as much, once per payoff entry
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError as exc:
            raise ValueError(f"zero denominator in {value!r}") from exc
    if isinstance(value, Integral):
        return Fraction(int(value))
    raise TypeError(
        f"expected int, fraction string, or Fraction, got {type(value).__name__}"
    )


def _fraction_rows(rows):
    """Nested sequences, or a 2-d array, as a list of equal-length lists of
    Fractions (as_fraction), at least one by one: the one reader of matrix
    input, which the games and every kernel entry call."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        raise ValueError("matrix must have at least one row and one column")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise ValueError("rows have unequal lengths")
    return [[as_fraction(e) for e in row] for row in rows]


def int_row(entries):
    """The integer row of a sequence of Fractions or ints.

    The numerators over the lcm of the denominators, then that lcm, stored
    last: entry j is row[j] / row[-1]. The gcd of such a row is already 1,
    since a prime dividing the lcm misses the scaled numerator of an entry
    whose denominator holds its full power. This is where Fractions enter
    the elimination kernel; they leave as Fraction(row[j], row[-1]).
    """
    return pair_row([(e.numerator, e.denominator) for e in entries])


def pair_row(pairs):
    """The integer row of (numerator, positive denominator) int pairs: the
    numerators over the lcm of the denominators, then that lcm. A pair need
    not be in lowest terms, and then the row may keep a common factor."""
    den = lcm(*(d for _, d in pairs))
    row = [n * (den // d) for n, d in pairs]
    row.append(den)
    return row


def reduced(row):
    """An integer row divided by the gcd of its ints, the row's one form."""
    g = gcd(*row)
    return row if g == 1 else [e // g for e in row]


def pivot(rows, r, col):
    """One exact exchange step on a list of dictionary rows, in place.

    A row is a list of Python ints, the numerators and then one positive
    row denominator (see int_row), divided by its gcd. Each row expresses
    one basic variable in the nonbasic ones, and its entries are the
    coefficients of the nonbasic variables, one slot each, then the
    right-hand side; a basic variable has no column. The step lets the
    variable of slot col enter row r's basis, and the variable that leaves
    takes slot col. Row r is scaled so its col entry is 1, and col is
    cleared from every other row, all in integer arithmetic; the leaving
    variable's column, a unit column until now, lands in slot col. Changed
    rows are replaced by new lists, never mutated, so a reference to an
    earlier row stays valid. This is the package's only elimination
    kernel: rank, solve, rank factorization, the simplex and the vertex
    walk differ only in how they choose (r, col).

    A row of denominator den and col entry f becomes (p/g) row - (f/g) prow
    over (p/g) den, where prow is the scaled pivot row, p = prow[col] its
    denominator and g = gcd(p, f). The pivot row's slot col is first set to
    sign * den, the leaving column's entry there, and every other row's
    slot col to 0, its entry in the leaving column before the step; the
    subtraction then runs only on the columns where prow is nonzero. A
    full tableau would also carry each basic variable's unit column, 0 or
    the row's own denominator, which leaves a row's gcd as it is: every
    slot holds the integer the full tableau holds in that column. Each row
    keeps its own denominator: a Bareiss tableau with one common
    determinant would rescale every row at every pivot, rows with f == 0
    included.
    """
    a, den = rows[r][col], rows[r][-1]
    prow = [-e for e in rows[r][:-1]] if a < 0 else rows[r][:-1]
    prow[col] = den if a > 0 else -den
    prow.append(abs(a))
    rows[r] = prow = reduced(prow)
    p = prow[-1]
    support = [(j, b) for j, b in enumerate(prow[:-1]) if b]
    for i, row in enumerate(rows):
        if i != r:
            f = row[col]
            if f:
                g = gcd(p, f)
                q, s = p // g, f // g
                row = [q * e for e in row] if q != 1 else row[:]
                row[col] = 0
                for j, b in support:
                    row[j] -= s * b
                rows[i] = reduced(row)


def min_ratio_rows(rows, candidates, col):
    """The candidate rows tied at the least ratio rhs / col entry, in
    candidate order, over those whose col entry is positive; [] if none is.

    Rows are integer rows whose rhs is row[-2]. A row's denominator cancels
    in its own ratio, so two ratios compare by cross-multiplying.
    """
    tied, best = [], None
    for r in candidates:
        a, b = rows[r][col], rows[r][-2]
        if a > 0:
            diff = -1 if best is None else b * best[1] - best[0] * a
            if diff < 0:
                tied, best = [], (b, a)
            if diff <= 0:
                tied.append(r)
    return tied


def min_dual_ratio_cols(zrow, row):
    """The slots tied at the least ratio zrow[j] / -row[j], in slot order,
    over those whose row entry is negative; [] if none is.

    These are the entering candidates of a dual simplex step in which row
    leaves: zrow is the cost row, whose entries are the reduced costs, and
    both are integer rows over the same nonbasic slots. Each row's
    denominator is common to all the ratios and cancels, so two ratios
    compare by cross-multiplying, as in min_ratio_rows.
    """
    tied, best = [], None
    for j, (d, a) in enumerate(zip(zrow[:-2], row[:-2])):
        if a < 0:
            diff = -1 if best is None else d * best[1] + best[0] * a
            if diff < 0:
                tied, best = [], (d, -a)
            if diff <= 0:
                tied.append(j)
    return tied


def _peel(rows):
    """The pivots of one elimination on integer rows, the rank peel: yield
    (col, k, rows) for each, rows the residual before the step.

    Columns are scanned left to right, and in each the first remaining row
    with a nonzero entry, row k, is the pivot. Rows are never swapped, and
    each pivot row leaves the list after its step, so the list always holds
    the residual of the peel so far on the columns not yet scanned. The
    step runs when the generator resumes.
    """
    rows = list(rows)
    for col in range(len(rows[0]) - 1):
        k = next((k for k, row in enumerate(rows) if row[col]), None)
        if k is not None:
            yield col, k, rows
            pivot(rows, k, col)
            del rows[k]


def matrix_rank(matrix=None, *, rows=None):
    """Exact rank: the pivot count of the rank peel (_peel).

    The matrix and the rows are those rank_factorize takes, which reads a
    pair off each of the same pivots.
    """
    if rows is None:
        rows = [int_row(row) for row in _fraction_rows(matrix)]
    return sum(1 for _ in _peel(rows))


def solve_linear_system(a, b):
    """Solve the square system a x = b exactly.

    Returns a tuple of Fractions, or None when the system has no unique
    solution (singular matrix, whether inconsistent or underdetermined).
    The elimination runs on the system's integer rows (_solve_rows).
    """
    a = _fraction_rows(a)
    n = len(a)
    if len(a[0]) != n:
        raise ValueError("coefficient matrix must be square")
    b = [as_fraction(e) for e in b]
    if len(b) != n:
        raise ValueError("right-hand side length does not match")
    rows = _solve_rows([int_row(ra + [rb]) for ra, rb in zip(a, b)])
    return None if rows is None else tuple(Fraction(row[n], row[-1])
                                           for row in rows)


def _solve_rows(rows):
    """Gauss-Jordan elimination on the n integer rows of a square system,
    each its n coefficients, its right-hand side and its denominator (as
    int_row writes them). Column col is brought into the basis of row col,
    so on return row col's right-hand side over its denominator is unknown
    col: rows[col][n] / rows[col][-1]. Returns the list of rows, or None
    when the system is singular. The caller's list is reordered and its
    rows replaced in place."""
    n = len(rows)
    for col in range(n):
        r = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if r is None:
            return None
        rows[col], rows[r] = rows[r], rows[col]
        pivot(rows, col, col)
    return rows


@dataclass(frozen=True)
class RankFactorization:
    """Sum-of-outer-products form C = sum of u v^T over the stored pairs.

    The number of pairs equals the exact rank. Every u has shape[0]
    entries and every v shape[1], and the shape is at least one by one,
    like every matrix the package reads.
    """

    shape: tuple[int, int]
    pairs: tuple[tuple[tuple[Fraction, ...], tuple[Fraction, ...]], ...]

    def __post_init__(self):
        m, n = self.shape
        if m < 1 or n < 1:
            raise ValueError("matrix must have at least one row and one column")
        if any(len(u) != m or len(v) != n for u, v in self.pairs):
            raise ValueError("pair vectors do not match the shape")

    @property
    def rank(self):
        return len(self.pairs)

    @property
    def nonnegative(self):
        """Whether every entry of every u and v is >= 0, which is what the
        relative approximation scheme needs from its input."""
        return all(e >= 0 for u, v in self.pairs for e in (*u, *v))

    def _int_rows(self):
        """The integer rows of sum u v^T, each reduced, so each is int_row
        of its Fraction row. With U and V the integer rows of a pair's u
        and v, over du and dv, row i sums U_i V / (du dv) over the pairs,
        as numerators over the lcm of their du dv."""
        m, n = self.shape
        uv = [[int_row(map(as_fraction, w)) for w in p] for p in self.pairs]
        den = lcm(*(u[-1] * v[-1] for u, v in uv))
        return [reduced([sum(u[i] * v[j] * (den // (u[-1] * v[-1]))
                             for u, v in uv) for j in range(n)] + [den])
                for i in range(m)]

    def matrix(self):
        """sum u v^T as an object array of Fractions."""
        rows = [[Fraction(e, row[-1]) for e in row[:-1]]
                for row in self._int_rows()]
        return _array(rows)


def rank_factorize(matrix=None, *, rows=None):
    """Canonical rank factorization by iterated rank-one peeling.

    The matrix is anything _fraction_rows reads. A caller that already
    holds the matrix as integer rows, int_row of each row (a game's payoff
    sum, say), passes them as rows instead, and no Fraction is read; the
    pivots and the pairs are the same.

    Each pivot of the rank peel (_peel) gives one pair (u, v), read off
    the residual before its step: u is the pivot column, with 0 on the rows
    already peeled, and v is the pivot row divided by the pivot, read on
    the columns after the pivot's: it is 0 on the earlier columns and 1 on
    the pivot's own. Each pair is scaled so the first nonzero entry of its
    u, which is the pivot itself, is positive. The pair count is the exact
    rank.
    """
    if rows is None:
        rows = [int_row(row) for row in _fraction_rows(matrix)]
    m, n = len(rows), len(rows[0]) - 1
    left = list(range(m))  # original index of each remaining row
    pairs = []
    for col, k, rest in _peel(rows):
        row = rest[k]
        sign = 1 if row[col] > 0 else -1
        u = [Fraction(0)] * m
        for i, r in zip(left, rest):
            u[i] = Fraction(sign * r[col], r[-1])
        a = abs(row[col])
        pairs.append((tuple(u), (Fraction(0),) * col + (
            Fraction(sign), *(Fraction(e, a) for e in row[col + 1:-1]))))
        del left[k]
    return RankFactorization(shape=(m, n), pairs=tuple(pairs))
