"""Approximation machinery: truncation, perturbation, and grid-LP schemes."""

import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from math import lcm, prod

from . import errors
from .games import (
    BimatrixGame,
    MixedProfile,
    _eps_threshold,
    _evaluate_rows,
    _fractions,
    _rows_over,
    _strategy_row,
    is_approximate_equilibrium,
    is_exact_equilibrium,
    make_report,
)
from .linalg import (
    RankFactorization,
    _array,
    _fraction_rows,
    as_fraction,
    int_row,
    matrix_rank,
    pair_row,
    reduced,
)
from .lp import StandardForm

# svd_truncate rounds each float factor entry to the nearest Fraction whose
# denominator is at most this.
SVD_MAX_DENOMINATOR = 10**6


def svd_truncate(matrix, k):
    """Best-effort rank-k truncation with exact rational output.

    If the matrix already has rank <= k it is returned unchanged (exact
    shortcut, no floating point involved). Otherwise the leading k singular
    triples of a float SVD are rationalized factor by factor, and the result
    is the matrix() of the RankFactorization of those k pairs, so it provably
    has rank <= k; the rationalization happens on the rank-one factors,
    never on their sum, which would not preserve the rank.
    Entries too large for the float SVD raise ValueError.
    """
    rows = _fraction_rows(matrix)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k >= matrix_rank(rows=[int_row(row) for row in rows]):
        return _array(rows)
    m, n = len(rows), len(rows[0])
    if k == 0:
        return RankFactorization((m, n), ()).matrix()
    # every singular value is at most sqrt(m n) times the largest entry, so
    # this keeps the float conversion and the SVD's output finite
    if max(abs(e) for row in rows for e in row) * m * n >= sys.float_info.max:
        raise ValueError(
            "payoff sum entries are too large for the float SVD of "
            "svd_truncate: the largest |entry| times m*n must stay below "
            f"{sys.float_info.max:.3g}"
        )
    import numpy as np  # the one float computation in the package

    # each entry is float() of its Fraction, which rounds correctly
    u, s, vt = np.linalg.svd(np.array(rows, dtype=float))
    pairs = tuple(
        (tuple(Fraction(u[i, t] * s[t]).limit_denominator(SVD_MAX_DENOMINATOR)
               for i in range(m)),
         tuple(Fraction(vt[t, j]).limit_denominator(SVD_MAX_DENOMINATOR)
               for j in range(n)))
        for t in range(k)
    )
    return RankFactorization((m, n), pairs).matrix()


@dataclass(frozen=True, eq=False)
class GamePerturbation:
    """A game, its payoff-sum replacement, and the relative perturbation size
    eps = |c' - c| / |c| (max-entry norms)."""

    original: BimatrixGame
    perturbed: BimatrixGame
    eps: Fraction

    @property
    def c_prime(self):
        return self.perturbed.c


def perturb_game(game, c_prime):
    """Shift both payoff matrices by (c' - c)/2 so the payoff sum becomes c'.

    Splitting the difference evenly keeps the change symmetric between the
    players. Requires |a+b| > 0 (otherwise no relative scale exists) and
    |c' - c| < |a+b| (otherwise no eps < 1 describes the perturbation).
    """
    cp = _fraction_rows(c_prime)
    if (len(cp), len(cp[0])) != game.shape:
        raise ValueError("replacement matrix shape does not match the game")
    if game.norm_c == 0:
        raise ValueError("zero-sum game has no relative perturbation scale")
    delta = [[e - f for e, f in zip(row, _fractions(c_row))]
             for row, c_row in zip(cp, game._c_rows)]
    eps = Fraction(max(abs(e) for row in delta for e in row), game.norm_c)
    if eps >= 1:
        raise ValueError("perturbation is as large as the payoff scale itself")
    a_rows, da, bt_rows, db = game._int_form
    a, b = ([[e + d / 2 for e, d in zip(row, d_row)]
             for row, d_row in zip(_rows_over(rows, den), delta)]
            for rows, den in ((a_rows, da), (zip(*bt_rows), db)))
    perturbed = BimatrixGame(a, b)
    return GamePerturbation(original=game, perturbed=perturbed, eps=eps)


def equilibrium_survives_perturbation(pert, profile):
    """Check that an exact equilibrium of the original game is still a
    3 eps approximate equilibrium of the perturbed game (measured against
    the perturbed game's own payoff scale)."""
    if not is_exact_equilibrium(pert.original, profile):
        raise ValueError("profile is not an exact equilibrium of the original")
    return is_approximate_equilibrium(pert.perturbed, profile, 3 * pert.eps)


def _grid_search(game, factor_rows, axes, cell_cost, score, cap=None):
    """Solve one LP per grid cell until a cell scores exactly 0; return the
    best (score, profile) or None.

    The LP runs over (x, y, s1, s2). s1 bounds the row player's best pure
    payoff against y, s2 the column player's against x; their sum plays the
    role of the single s variable of the one-shot formulation, with m + n
    rows instead of m * n. factor_rows[t] is the integer row
    (linalg.int_row) of coefficients over (x, y); a cell picks one interval
    from each axis and bounds the matching factor row by it, an interval
    being the triple (lo, hi, d) = int_row([lo / d, hi / d]). The LP
    minimizes cell_cost(cell), s1 + s2 minus a linear term in y, with
    s1 + s2 <= cap when cap is given. The LP's rows are written as integer
    rows from the game's integer form (game._int_form), each reduced, so
    each is int_row of its Fractions. Only the factor rows' right-hand
    sides and the objective differ between cells, so the standard form is
    built once (lp.StandardForm), and each cell passes its own to
    StandardForm.solve_rows: a cell's right-hand sides are the rows' own
    pairs and then (lo, d) and (hi, d) for each interval, and cell_cost
    returns an integer row. The form re-solves each cell from the last
    optimal dictionary and keeps that optimum only when it is certified
    unique, so a cell's result does not depend on the cells before it. Cells
    are walked in product order over the axes; with no axes (a zero-sum
    game) that is one cell with no factor rows. Infeasible cells are
    skipped. A cell's x and y are scored as integer rows,
    score(game, x_row, y_row), after the checks a MixedProfile makes; the
    lowest score wins and ties go to the earliest cell, so the result is
    deterministic. A score is never negative, so the first cell that
    scores 0 is the winner and the search stops there. Only the winner
    becomes a MixedProfile.

    The cell count, the product of the axis lengths, is checked against
    errors.MAX_WORK before any LP runs (_axis has already refused any single
    axis longer than the bound), so a grid is refused whether or not an
    early cell would have stopped the search.
    """
    errors.check_work(prod(len(axis) for axis in axes), "cells in the grid")
    m, n = game.shape
    a_rows, a_den, bt_rows, bt_den = game._int_form
    rows = [reduced([0] * m + row + [-a_den, 0, a_den]) for row in a_rows]
    rows += [reduced(row + [0] * n + [0, -bt_den, bt_den]) for row in bt_rows]
    rows += [[1] * m + [0] * (n + 2) + [1], [0] * m + [1] * n + [0, 0, 1]]
    senses = ["<="] * (m + n) + ["=", "="]
    base = [(0, 1)] * (m + n) + [(1, 1), (1, 1)]
    if cap is not None:
        rows.append([0] * (m + n) + [1, 1, 1])
        senses.append("<=")
        base.append((cap.numerator, cap.denominator))
    for row in factor_rows:
        row = row[:-1] + [0, 0, row[-1]]
        rows += [row, row]
        senses += [">=", "<="]
    form = StandardForm(rows, senses, [False] * (m + n) + [True, True])
    best = None
    for cell in product(*axes):
        rhs = base + [p for lo, hi, d in cell for p in ((lo, d), (hi, d))]
        status, values, _ = form.solve_rows(rhs, cell_cost(cell))
        if status == "infeasible":
            continue
        if status != "optimal":
            raise RuntimeError("cell LP cannot be unbounded; this is a bug")
        x_row = _strategy_row(pair_row(values[:m]), "x")
        y_row = _strategy_row(pair_row(values[m:m + n]), "y")
        cand = score(game, x_row, y_row)
        if best is None or cand < best[0]:
            best = (cand, x_row, y_row)
            if not cand:
                break
    if best is None:
        return None
    return best[0], MixedProfile.from_int_rows(best[1], best[2])


def _axis(lo, hi, advance):
    """The cells [a, advance(a)] from a = lo on, the last one cut at hi; one
    cell [lo, hi] when lo == hi.

    Raises CapExceededError as soon as the axis passes errors.MAX_WORK
    cells, so an axis too fine to search is never built in full.
    """
    if lo == hi:
        return [(lo, hi)]
    cells = []
    a = lo
    while a < hi:
        errors.check_work(len(cells) + 1, "or more cells on a grid axis")
        b = advance(a)
        cells.append((a, min(b, hi)))
        a = b
    return cells


def _interval_axis(lo, hi, step):
    """_axis(lo, hi, a -> a + step) in ints, each cell the reduced triple
    (lo, hi, d) = int_row of its two Fraction ends: the ends are walked as
    numerators over one common denominator, the lcm of the three given."""
    den = lcm(lo.denominator, hi.denominator, step.denominator)
    lo, hi, step = (v.numerator * (den // v.denominator)
                    for v in (lo, hi, step))
    return [tuple(reduced([a, b, den]))
            for a, b in _axis(lo, hi, lambda a: a + step)]


def approx_absolute(game, eps):
    """Equilibrium approximation with absolute loss guarantee eps * |a+b|.

    Factorize a+b into rank many rank-one terms, grid each factor score
    z_t = x . u_t with step eps|a+b| / (2k max|v_t|), and solve one LP per
    cell: minimize the best-response sum minus the bilinear term linearized
    at the cell midpoints. The candidate with the smallest exact loss wins
    (ties go to the earliest cell, so the result is deterministic); the
    search stops at the first cell of loss 0.

    One grid always suffices. In a cell, each z_t is within half a step of
    its midpoint, so the linearized objective is within eps|a+b| / (4k) per
    factor, eps|a+b| / 4 in all, of the exact loss. A true equilibrium lies
    in some cell and meets the cap, with linearized objective at most
    eps|a+b| / 4; that cell's optimum has at most that objective, hence an
    exact loss of at most eps|a+b| / 2. A best loss above the target is a
    bug and raises RuntimeError.

    A zero-sum game has rank 0: its grid is a single cell whose LP already
    minimizes the exact loss (solve_zero_sum is this case).

    Each cell evaluation is a pure function of (game, factorization, cell),
    so cells may be evaluated concurrently as long as the reduction keeps
    the same (loss, cell order) minimum: a parallel search may stop early
    only by returning the earliest cell of loss 0, not the first one to
    finish. The grid's lp.StandardForm keeps the dictionary of its last
    optimal solve, to start the next cell from, so a concurrent search
    needs one form per worker; a cell's result is the same whichever
    cells its form solved before. The built-in loop is sequential and
    stops at its first loss-0 cell.
    """
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    factors = game.factorization.pairs
    k = len(factors)
    target = _eps_threshold(game, eps)
    factor_rows = [int_row(list(u_vec) + [0] * game.n) for u_vec, _ in factors]
    axes = [
        _interval_axis(min(u_vec), max(u_vec),
                       target / (2 * k * max(abs(e) for e in v_vec)))
        for u_vec, v_vec in factors
    ]
    v_rows = [int_row(v_vec) for _, v_vec in factors]
    no_x = [0] * game.m

    def midpoint_cost(cell):
        """s1 + s2 - sum_t center_t v_t . y, the bilinear term linearized at
        the cell's midpoints, in ints: the center of (lo, hi, d) is
        (lo + hi) / (2 d), so term t is over 2 d times v_t's denominator."""
        dens = [2 * d * v[-1] for (_, _, d), v in zip(cell, v_rows)]
        den = lcm(*dens)
        y = [0] * game.n
        for (lo, hi, _), v, dt in zip(cell, v_rows, dens):
            w = (lo + hi) * (den // dt)
            y = [e - w * f for e, f in zip(y, v)]
        return reduced(no_x + y + [den, den, den])

    best = _grid_search(game, factor_rows, axes, midpoint_cost, _loss,
                        cap=game.norm_c)
    if best is None or best[0] > target:
        raise RuntimeError("no cell met the eps * |a+b| target; this is a bug")
    return make_report(game, best[1], kind="eps-approximate", parameter=eps)


def solve_zero_sum(game):
    """One exact equilibrium of a zero-sum game: the rank-0 absolute grid.

    Requires a + b = 0. Then a+b has no factors, so approx_absolute's grid
    is one cell with no factor rows, and with the cap s1 + s2 <= |a+b| = 0
    its LP admits exactly the equilibria: s1 + s2 is at least
    x (a+b) y = 0, with equality only when x and y are mutual best
    responses. The target check, loss <= eps |a+b| = 0, is then an exact
    loss-0 certificate, which makes payoff1 the game value, so
    approx_absolute's report is returned as the exact one.
    """
    if game.norm_c != 0:
        raise ValueError("game is not zero-sum: a + b has a nonzero entry")
    return replace(approx_absolute(game, 1), kind="exact", parameter=None)


def _reaches(a, hi, p, power):
    """Whether a p^power >= hi, for a >= 0 and p > 1, without the exact
    power when a square does: a p^k for k = 1, 2, 4, ... while k <= power,
    and the first that reaches hi decides, since p^k <= p^power. Only when
    none does, and the last k is not power itself, is p^power computed."""
    num, den, k = p.numerator, p.denominator, 1
    # a p^k >= hi, cross-multiplied: y num >= x den
    x, y = hi.numerator * a.denominator, a.numerator * hi.denominator
    while k <= power:
        if x * den <= y * num:
            return True
        if 2 * k > power:
            break
        num, den, k = num * num, den * den, 2 * k
    return k != power and hi <= a * p ** power


def _geometric_axis(entries, eps):
    """Geometric cell list covering [min, max] of the entries, plus a flag
    for the zero-minimum extension.

    Positive minima get the classical progression [a, a(1+eps)] with the
    last interval truncated at the maximum. A zero minimum gets one extra
    leading cell [0, eta] with eta = max * eps / (1 + eps); the ratio
    certificate for that factor is weakened accordingly. Negative minima are
    rejected: relative certificates need nonnegative scales.

    The walk from a > 0 reaches hi within errors.MAX_WORK cells exactly
    when hi <= a (1+eps)^MAX_WORK (_reaches), so a longer axis is refused
    before any cell is built.
    """
    lo, hi = min(entries), max(entries)
    if lo < 0:
        raise ValueError("relative grid needs nonnegative factor ranges")

    def advance(a):
        return a * (1 + eps)

    def walk(a):
        if not _reaches(a, hi, 1 + eps, errors.MAX_WORK):
            errors.check_work(errors.MAX_WORK + 1,
                              "or more cells on a grid axis")
        return _axis(a, hi, advance)

    if lo == 0 < hi:
        eta = hi * eps / (1 + eps)
        return [(Fraction(0), eta)] + walk(eta), True
    return walk(lo), False


def approx_relative(game, eps, decomp=None):
    """Equilibrium approximation with a relative gap certificate.

    Needs a nonnegative rank decomposition of a+b (game.factorization when
    decomp is None). Both factor scores z_t = x . u_t and w_t = v_t . y are
    gridded geometrically with ratio 1 + eps; each cell's LP minimizes the
    best-response sum under the cell constraints, and candidates are ranked
    by their exact relative gap (loss / best-response sum); the search stops
    at the first cell of gap 0. In the cell of a true equilibrium the gap is
    at most rho = 1 - (1+eps)^-2 of the best-response sum, so the best
    candidate meets s - x(a+b)y <= rho * s; the assertion is enforced
    unless a zero range minimum forced the weakened leading cell, in which
    case the best candidate found is returned with its actual numbers.
    """
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    # the game's own factorization is c's exact peel: only a decomposition
    # the caller passes is checked against the game
    given = decomp is not None
    if not given:
        decomp = game.factorization
    elif decomp.shape != game.shape:
        raise ValueError("decomposition shape does not match the game")
    if not decomp.nonnegative:
        raise ValueError("decomposition must be entrywise nonnegative")
    # both sides are reduced integer rows, the one form of their rows
    if given and decomp._int_rows() != game._c_rows:
        raise ValueError("decomposition does not reconstruct a+b")
    rho = 1 - 1 / (1 + eps) ** 2

    zero_x, zero_y = [0] * game.m, [0] * game.n
    axes = []
    factor_rows = []
    degraded = False
    for u_vec, v_vec in decomp.pairs:
        z_cells, z_deg = _geometric_axis(u_vec, eps)
        w_cells, w_deg = _geometric_axis(v_vec, eps)
        degraded = degraded or z_deg or w_deg
        axes += [[int_row(cell) for cell in cells]
                 for cells in (z_cells, w_cells)]
        factor_rows += [int_row(list(u_vec) + zero_y),
                        int_row(zero_x + list(v_vec))]
    cost = int_row(zero_x + zero_y + [1, 1])
    best = _grid_search(game, factor_rows, axes, lambda cell: cost, _gap_ratio)
    if best is None:
        raise RuntimeError("every profile lies in some cell; this is a bug")
    if not degraded and best[0] > rho:
        raise RuntimeError("relative certificate missed its bound; this is a bug")
    return make_report(game, best[1], kind="relative-approximate", parameter=rho)


def _loss(game, x_row, y_row):
    """Exact loss of the strategies' integer rows."""
    return Fraction(*_evaluate_rows(game, x_row, y_row)[0])


def _gap_ratio(game, x_row, y_row):
    """Exact relative gap of the strategies' integer rows: loss over the
    best-response sum (0 at loss 0)."""
    gap, p1, p2 = (Fraction(*pair)
                   for pair in _evaluate_rows(game, x_row, y_row)[:3])
    return gap / (gap + p1 + p2) if gap else Fraction(0)
