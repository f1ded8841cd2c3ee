"""Bimatrix games with exact rational payoffs and equilibrium quality measures."""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul

from .linalg import (
    _array,
    _fraction_rows,
    as_fraction,
    int_row,
    rank_factorize,
    reduced,
)


class BimatrixGame:
    """Two-player game in matrix form: payoffs a for the row player, b for
    the column player.

    Immutable. A game's one state is its integer form (_int_form): a and
    b^T as integer rows over one common denominator each, which ==, loss,
    the vertex walk and the grid read. Every public value is built from
    it on first read and kept: a and b as read-only Fraction arrays, the
    payoff sum c = a + b, read-only like them, and its largest absolute
    entry norm_c (the scale every approximation guarantee is measured
    against), as is the rank factorization of c, which rank_c counts and
    the grid schemes grid. A copy, a deep copy or an unpickled game
    carries the integer form only, and builds its views again.

    Note the zero-sum corner: when a + b = 0, norm_c = 0 and the threshold
    eps * norm_c collapses to 0 for every eps, so only exact equilibria pass
    the approximate test. The formulas are applied literally rather than
    special-cased.
    """

    def __init__(self, a, b):
        a = _fraction_rows(a)
        b = _fraction_rows(b)
        if (len(a), len(a[0])) != (len(b), len(b[0])):
            raise ValueError("payoff matrices must share a shape")
        a, bt = ([[(e.numerator, e.denominator) for e in row] for row in mat]
                 for mat in (a, zip(*b)))
        vars(self).update(_shape=(len(a), len(bt)),
                          _int_form=(*_int_matrix(a), *_int_matrix(bt)))

    @classmethod
    def _from_int_form(cls, a_rows, a_den, bt_rows, bt_den):
        """The game whose _int_form is (a_rows, a_den, bt_rows, bt_den),
        each matrix over the lcm of its entries' reduced denominators (as
        _int_matrix writes it)."""
        game = object.__new__(cls)
        vars(game).update(_shape=(len(a_rows), len(bt_rows)),
                          _int_form=(a_rows, a_den, bt_rows, bt_den))
        return game

    def __reduce__(self):
        return self._from_int_form, self._int_form

    def __setattr__(self, name, value):
        raise AttributeError(f"BimatrixGame is immutable: cannot set {name}")

    @cached_property
    def a(self):
        a_rows, da = self._int_form[:2]
        return _array(_rows_over(a_rows, da), writeable=False)

    @cached_property
    def b(self):
        bt_rows, db = self._int_form[2:]
        return _array(_rows_over(zip(*bt_rows), db), writeable=False)

    @cached_property
    def _c_rows(self):
        """The integer rows of c = a + b, each reduced, so each is int_row
        of its Fraction row: with a = A / da and b = B / db,
        c_ij = (A_ij db + B_ij da) / (da db)."""
        a_rows, da, bt_rows, db = self._int_form
        den = da * db
        return [reduced([e * db + f * da for e, f in zip(row, b_row)] + [den])
                for row, b_row in zip(a_rows, zip(*bt_rows))]

    @cached_property
    def c(self):
        """The payoff sum a + b, read-only."""
        return _array(list(map(_fractions, self._c_rows)), writeable=False)

    @cached_property
    def norm_c(self):
        """The largest |entry| of c, the scale of the eps guarantees."""
        return max(Fraction(max(map(abs, row[:-1])), row[-1])
                   for row in self._c_rows)

    @cached_property
    def factorization(self):
        """linalg.rank_factorize of c's integer rows: the pairs (u, v)
        with c = sum u v^T."""
        return rank_factorize(rows=self._c_rows)

    @property
    def rank_c(self):
        return self.factorization.rank

    @property
    def shape(self):
        return self._shape

    @property
    def m(self):
        return self._shape[0]

    @property
    def n(self):
        return self._shape[1]

    def __eq__(self, other):
        if not isinstance(other, BimatrixGame):
            return NotImplemented
        # each integer form is the one form of its matrix
        return self.shape == other.shape and self._int_form == other._int_form

    def __repr__(self):
        return f"BimatrixGame({self.m}x{self.n}, rank_c={self.rank_c})"


def _int_matrix(rows):
    """Rows of (numerator, positive denominator) pairs, each in lowest
    terms, as integer rows over the lcm of the denominators: (rows, lcm).
    The one common-denominator form of a matrix, whether its entries come
    from a game file's tokens or from Fractions."""
    den = lcm(*(d for row in rows for _, d in row))
    return [[n * (den // d) for n, d in row] for row in rows], den


def _rows_over(rows, den):
    """The Fraction rows of integer rows over the one denominator den."""
    return [[Fraction(e, den) for e in row] for row in rows]


class MixedProfile:
    """A mixed-strategy pair: x for the row player, y for the column player.

    Entries are Fractions, nonnegative, each vector summing to exactly 1.
    Both are checked on the vector's integer row (linalg.int_row), which
    the profile keeps for _evaluate and reads its supports from. A profile
    made from integer rows (from_int_rows) builds x and y on first read.
    Two profiles are equal, and hash equal, when their x and y are.
    Immutable.
    """

    def __init__(self, x, y):
        x = tuple(as_fraction(e) for e in x)
        y = tuple(as_fraction(e) for e in y)
        vars(self).update(_int_form=(_strategy_row(int_row(x), "x"),
                                     _strategy_row(int_row(y), "y")),
                          x=x, y=y)

    @classmethod
    def from_int_rows(cls, x_row, y_row):
        """The profile whose x and y are the integer rows x_row and y_row
        (linalg.pair_row): entry j of x is x_row[j] / x_row[-1], with a
        positive denominator. The rows are checked as the Fractions are."""
        profile = object.__new__(cls)
        vars(profile).update(_int_form=(_strategy_row(x_row, "x"),
                                        _strategy_row(y_row, "y")))
        return profile

    def __setattr__(self, name, value):
        raise AttributeError(f"MixedProfile is immutable: cannot set {name}")

    @cached_property
    def x(self):
        return _fractions(self._int_form[0])

    @cached_property
    def y(self):
        return _fractions(self._int_form[1])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.x, self.y) == (other.x, other.y)

    def __hash__(self):
        return hash((self.x, self.y))

    def __repr__(self):
        return f"MixedProfile(x={self.x!r}, y={self.y!r})"

    @property
    def support1(self):
        return tuple(i for i, e in enumerate(self._int_form[0][:-1]) if e > 0)

    @property
    def support2(self):
        return tuple(j for j, e in enumerate(self._int_form[1][:-1]) if e > 0)


def _fractions(row):
    """The Fraction entries of an integer row."""
    den = row[-1]
    return tuple(Fraction(e, den) for e in row[:-1])


def _strategy_row(row, name):
    """The integer row of a mixed strategy, checked: nonempty, with
    nonnegative numerators that sum to its positive denominator."""
    if len(row) < 2:
        raise ValueError(f"{name} must be nonempty")
    if min(row) < 0:
        raise ValueError(f"{name} has a negative entry")
    if sum(row[:-1]) != row[-1]:
        raise ValueError(f"{name} must sum to 1 exactly")
    return row


def pure_profile(m, n, i, j):
    """The profile playing row i against column j (0-based)."""
    x = [Fraction(0)] * m
    y = [Fraction(0)] * n
    x[i] = Fraction(1)
    y[j] = Fraction(1)
    return MixedProfile(tuple(x), tuple(y))


def _check_dimensions(game, profile):
    xs, ys = profile._int_form
    if len(xs) - 1 != game.m or len(ys) - 1 != game.n:
        raise ValueError("profile dimensions do not match the game")


def _evaluate(game, profile):
    """(loss, x a y, x b y, max_i (a y)_i, max_j (x b)_j) of the profile
    as Fractions: _evaluate_rows on its integer rows."""
    _check_dimensions(game, profile)
    return tuple(Fraction(*pair)
                 for pair in _evaluate_rows(game, *profile._int_form))


def _evaluate_rows(game, xs, ys):
    """(loss, x a y, x b y, max_i (a y)_i, max_j (x b)_j) from one a y and
    one x b (_products), combined by _evaluate_products."""
    a_rows, da, bt_rows, db = game._int_form
    return _evaluate_products(da, db, xs, *_products(bt_rows, xs),
                              ys, *_products(a_rows, ys))


def _products(rows, strategy):
    """(vector, max): the integer payoffs of the game's integer rows
    against an integer strategy row, one per row, and the largest. Each
    product stops at the shorter list, so the strategy's denominator never
    enters it: the rows of a against ys give A ys, the rows of b^T against
    xs give xs B."""
    vector = [sum(map(mul, row, strategy)) for row in rows]
    return vector, max(vector)


def _evaluate_products(da, db, xs, xb, best2, ys, ay, best1):
    """(loss, x a y, x b y, max_i (a y)_i, max_j (x b)_j) from the products
    (xb, best2) of xs and (ay, best1) of ys (_products): the loss's
    bilinear term x (a+b) y is x a y + x b y.

    All in ints on the integer rows of the game and of the strategies,
    xs and ys with their denominators dx = xs[-1] and dy = ys[-1]: with
    a = A / da and b = B / db for integer matrices, a y is (A ys) / (da dy)
    and x b is (xs B) / (db dx). Each result is a (numerator, positive
    denominator) pair, not reduced, so a caller makes a Fraction only of
    what it reads.
    """
    dx, dy = xs[-1], ys[-1]
    p1, p2 = sum(map(mul, xs, ay)), sum(map(mul, xb, ys))
    gap = (best1 * dx - p1) * db + (best2 * dy - p2) * da
    return (
        (gap, da * db * dx * dy),
        (p1, da * dx * dy),
        (p2, db * dx * dy),
        (best1, da * dy),
        (best2, db * dx),
    )


def best_response_values(game, profile):
    """(best pure payoff against y for player 1, same against x for player 2)."""
    return _evaluate(game, profile)[3:]


def payoffs(game, profile):
    """(x a y, x b y): the realized payoffs of the two players."""
    return _evaluate(game, profile)[1:3]


def loss(game, profile):
    """Total incentive to deviate: max_i (a y)_i + max_j (x b)_j - x (a+b) y.

    Nonnegative for every profile; zero exactly at the equilibria.
    """
    return _evaluate(game, profile)[0]


def is_exact_equilibrium(game, profile):
    return loss(game, profile) == 0


def _eps_threshold(game, eps):
    """eps * |a+b|, the most loss an eps-approximate equilibrium of the
    game may have; eps must be nonnegative."""
    eps = as_fraction(eps)
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    return eps * game.norm_c


def is_approximate_equilibrium(game, profile, eps):
    """True when loss(game, profile) <= eps * |a+b| (max-entry scale)."""
    return loss(game, profile) <= _eps_threshold(game, eps)


def check_deviation_bound(game, profile, eps):
    """Check every pure deviation pair directly.

    True when (a y)_i + (x b)_j - x (a+b) y <= eps * |a+b| for all pure rows
    i and columns j. Equivalent to is_approximate_equilibrium, but computed
    pair by pair rather than through the two maxima, which makes it a useful
    cross-check of the loss formula.
    """
    bound = _eps_threshold(game, eps)
    _check_dimensions(game, profile)
    x, y = profile.x, profile.y
    a_rows, da, bt_rows, db = game._int_form
    ay = [_dot(row, y) for row in _rows_over(a_rows, da)]
    xb = [_dot(x, col) for col in _rows_over(bt_rows, db)]
    base = _dot(x, [_dot(_fractions(row), y) for row in game._c_rows])
    return all(p + q - base <= bound for p in ay for q in xb)


def _dot(u, v):
    """The Fraction dot product of two equal-length sequences."""
    return sum(map(mul, u, v), Fraction(0))


def qp_objective(game, profile):
    """Objective of the equilibrium quadratic program at the profile.

    s - z Q z, where s is the sum of the two best-response values, z stacks
    (x, y), and Q is the block matrix with (a+b)/2 in the off-diagonal
    blocks. The block matrix is assembled explicitly so this is a genuinely
    different computation from loss(); the two agree on every profile, which
    is what makes the program's optima the equilibria.
    """
    _check_dimensions(game, profile)
    m, n = game.shape
    half = [[e / 2 for e in _fractions(row)] for row in game._c_rows]
    q = ([[Fraction(0)] * m + row for row in half]
         + [list(col) + [Fraction(0)] * n for col in zip(*half)])
    z = profile.x + profile.y
    s = sum(best_response_values(game, profile), Fraction(0))
    return s - _dot(z, [_dot(row, z) for row in q])


@dataclass(frozen=True)
class EquilibriumReport:
    """One solution with its quality numbers.

    kind is 'exact', 'eps-approximate', or 'relative-approximate'; parameter
    carries the eps or the ratio bound rho for the approximate kinds and is
    None for exact. Supports are 0-based strategy index tuples.
    """

    profile: MixedProfile
    loss: Fraction
    payoff1: Fraction
    payoff2: Fraction
    kind: str
    parameter: Fraction | None
    support1: tuple
    support2: tuple


def make_report(game, profile, kind="exact", parameter=None):
    """Evaluate a profile into an EquilibriumReport."""
    if kind not in ("exact", "eps-approximate", "relative-approximate"):
        raise ValueError(f"unknown report kind {kind!r}")
    _check_dimensions(game, profile)
    return _report(profile, _evaluate_rows(game, *profile._int_form)[:3],
                   kind, parameter)


def _report(profile, values, kind="exact", parameter=None):
    """The EquilibriumReport of a profile whose loss and payoffs are the
    first three (numerator, denominator) pairs of _evaluate_rows, values:
    make_report's builder, and the one of enumeration's lazy reports."""
    gap, p1, p2 = (Fraction(*pair) for pair in values)
    return EquilibriumReport(
        profile=profile,
        loss=gap,
        payoff1=p1,
        payoff2=p2,
        kind=kind,
        parameter=None if parameter is None else as_fraction(parameter),
        support1=profile.support1,
        support2=profile.support2,
    )
