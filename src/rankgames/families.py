"""Construction of bimatrix game families with controlled payoff-sum rank."""

from fractions import Fraction
from math import lcm

from .games import BimatrixGame, _rows_over
from .linalg import _array, _fraction_rows, as_fraction


def rank1_family(d):
    """The d x d game with a_ij = 2ij - i^2 + j^2 and b = a^T (1-based i, j).

    The payoff sum is (4ij), a rank-1 matrix, yet the game has exactly
    2d - 1 equilibria: the d symmetric pure profiles (e_i, e_i) and the
    d - 1 symmetric half-half mixes of adjacent rows/columns.
    """
    if d < 1:
        raise ValueError("d must be positive")
    a = [[2 * i * j - i * i + j * j for j in range(1, d + 1)]
         for i in range(1, d + 1)]
    # b^T = a: both integer forms are a's rows over denominator 1
    return BimatrixGame._from_int_form(a, 1, a, 1)


def squared_difference_family(d):
    """The symmetric d x d game with both payoffs -(i - j)^2.

    Same best-response structure (so the same equilibria) as rank1_family:
    its payoff columns differ from that game's only by column-constant
    shifts. The payoff sum -2(i-j)^2 has rank 3 once d >= 3. It is the
    polynomial kernel game of p(t) = -t^2 on the grid (1, ..., d).
    """
    if d < 1:
        raise ValueError("d must be positive")
    return polynomial_kernel_game(range(1, d + 1), (0, 0, -1))


def identity_game(d):
    """Coordination game: both players receive the d x d identity payoffs.

    Has 2^d - 1 equilibria (a uniform mix on each nonempty subset, played by
    both), which meets the lower-bound count tau(d) for d <= 4.
    """
    if d < 1:
        raise ValueError("d must be positive")
    eye = [[int(i == j) for j in range(d)] for i in range(d)]
    return BimatrixGame._from_int_form(eye, 1, eye, 1)


def block_game(inner, outer):
    """Block-diagonal composition: inner in the top-left block, outer in the
    bottom-right, zeros elsewhere, for both payoff matrices.

    Both components must be square. The payoff-sum rank is the sum of the
    component ranks. Each matrix is written from the components' integer
    forms, over the lcm of their denominators, as _int_matrix writes it.
    """
    if inner.m != inner.n or outer.m != outer.n:
        raise ValueError("block components must be square games")

    def diag(top, top_den, bottom, bottom_den):
        den = lcm(top_den, bottom_den)
        s, t = den // top_den, den // bottom_den
        right, left = [0] * len(bottom), [0] * len(top)
        return ([[e * s for e in row] + right for row in top]
                + [left + [e * t for e in row] for row in bottom]), den

    a1, da1, bt1, db1 = inner._int_form
    a2, da2, bt2, db2 = outer._int_form
    return BimatrixGame._from_int_form(*diag(a1, da1, a2, da2),
                                       *diag(bt1, db1, bt2, db2))


def polynomial_kernel_matrix(g, coeffs):
    """The matrix with entries p(g_i - g_j) for a polynomial p.

    coeffs lists the coefficients of p by ascending power. The resulting
    matrix has rank at most (deg+1)(deg+2)/2 regardless of the grid g,
    because each power (g_i - g_j)^t expands into deg+1 separable terms.
    """
    return _array(_kernel_rows(g, coeffs))


def _kernel_rows(g, coeffs):
    """polynomial_kernel_matrix's entries as lists of Fraction rows, p
    evaluated by Horner's rule: the rows of the matrix and of the game."""
    g = [as_fraction(e) for e in g]
    coeffs = [as_fraction(e) for e in coeffs]
    if not g:
        raise ValueError("grid g must be nonempty")
    if not coeffs:
        raise ValueError("need at least one coefficient")

    def p(t):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * t + c
        return acc

    return [[p(gi - gj) for gj in g] for gi in g]


def polynomial_kernel_game(g, coeffs):
    """Symmetric game giving both players the polynomial kernel payoffs.

    Generalizes squared_difference_family, which is the kernel p(t) = -t^2
    on the grid g = (1, ..., d)."""
    rows = _kernel_rows(g, coeffs)
    return BimatrixGame(rows, rows)


def additive_to_zero_sum(game, u, v):
    """Rewrite a game with additively separable payoff sum as a zero-sum game.

    Requires a_ij + b_ij = u_i + v_j for all i, j. The returned game has
    a'_ij = a_ij - v_j and b'_ij = b_ij - u_i, so a' + b' = 0. Each player's
    payoff changes by an amount outside their own control, which is why the
    equilibria (and the whole best-response structure) are preserved.
    """
    u = [as_fraction(e) for e in u]
    v = [as_fraction(e) for e in v]
    if len(u) != game.m or len(v) != game.n:
        raise ValueError("u/v lengths must match the game dimensions")
    a_rows, da, bt_rows, db = game._int_form
    a2 = [[e - vj for e, vj in zip(row, v)] for row in _rows_over(a_rows, da)]
    b2 = [[e - ui for e in row]
          for ui, row in zip(u, _rows_over(zip(*bt_rows), db))]
    # a' + b' = c - u_i - v_j, which is 0 exactly when c splits as required
    if any(p + q for r1, r2 in zip(a2, b2) for p, q in zip(r1, r2)):
        raise ValueError("payoff sum is not u_i + v_j at every entry")
    return BimatrixGame(a2, b2)


def find_additive_decomposition(matrix):
    """Split c_ij = u_i + v_j if possible, normalizing u_0 = 0.

    Returns (u, v) as Fraction tuples, or None when the matrix is not
    additively separable.
    """
    c = _fraction_rows(matrix)
    u = tuple(row[0] - c[0][0] for row in c)
    v = tuple(c[0])
    for ui, row in zip(u, c):
        if any(e != ui + vj for e, vj in zip(row, v)):
            return None
    return u, v
