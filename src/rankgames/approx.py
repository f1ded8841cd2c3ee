"""Approximation machinery: truncation, perturbation, and grid-LP schemes."""

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from .errors import CapExceededError
from .games import (
    BimatrixGame,
    MixedProfile,
    is_approximate_equilibrium,
    is_exact_equilibrium,
    loss,
    make_report,
)
from .linalg import (
    as_fraction,
    fraction_matrix,
    fraction_vector,
    matrix_rank,
    max_abs_entry,
    rank_factorize,
)
from .lp import linear_program, solve_lp

DEFAULT_RANK_GUARD = 4


def svd_truncate(matrix, k, max_denominator=10**6):
    """Best-effort rank-k truncation with exact rational output.

    If the matrix already has rank <= k it is returned unchanged (exact
    shortcut, no floating point involved). Otherwise the leading k singular
    triples of a float SVD are rationalized factor by factor and summed, so
    the result provably has rank <= k; the rationalization happens on the
    rank-one factors, never on their sum, which would not preserve the rank.
    Entries too large for the float SVD raise ValueError.
    """
    c = fraction_matrix(matrix)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k >= matrix_rank(c):
        return c
    m, n = c.shape
    out = np.full((m, n), Fraction(0), dtype=object)
    if k == 0:
        return out
    # every singular value is at most sqrt(m n) times the largest entry, so
    # this keeps the float conversion and the SVD's output finite
    if max_abs_entry(c) * m * n >= sys.float_info.max:
        raise ValueError(
            "payoff sum entries are too large for the float SVD of "
            "svd_truncate: the largest |entry| times m*n must stay below "
            f"{sys.float_info.max:.3g}"
        )
    u, s, vt = np.linalg.svd(c.astype(float))
    for t in range(k):
        col = fraction_vector(
            Fraction(u[i, t] * s[t]).limit_denominator(max_denominator)
            for i in range(m)
        )
        row = fraction_vector(
            Fraction(vt[t, j]).limit_denominator(max_denominator)
            for j in range(n)
        )
        out = out + np.outer(col, row)
    return out


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
    cp = fraction_matrix(c_prime)
    if cp.shape != game.shape:
        raise ValueError("replacement matrix shape does not match the game")
    if game.norm_c == 0:
        raise ValueError("zero-sum game has no relative perturbation scale")
    delta = cp - game.c
    eps = Fraction(max_abs_entry(delta), game.norm_c)
    if eps >= 1:
        raise ValueError("perturbation is as large as the payoff scale itself")
    half = delta * Fraction(1, 2)
    perturbed = BimatrixGame(game.a + half, game.b + half)
    return GamePerturbation(original=game, perturbed=perturbed, eps=eps)


def equilibrium_survives_perturbation(pert, profile):
    """Check that an exact equilibrium of the original game is still a
    3 eps approximate equilibrium of the perturbed game (measured against
    the perturbed game's own payoff scale)."""
    if not is_exact_equilibrium(pert.original, profile):
        raise ValueError("profile is not an exact equilibrium of the original")
    return is_approximate_equilibrium(pert.perturbed, profile, 3 * pert.eps)


def _grid_search(game, factor_rows, axes, objective_y, score, cap=None):
    """Solve one LP per grid cell; return the best (score, profile) or None.

    The LP runs over (x, y, s1, s2). s1 bounds the row player's best pure
    payoff against y, s2 the column player's against x; their sum plays the
    role of the single s variable of the one-shot formulation, with m + n
    rows instead of m * n. factor_rows[t] holds coefficients over (x, y);
    a cell picks one interval from each axis and bounds the matching factor
    row by it. The LP minimizes s1 + s2 - objective_y(cell) . y, with
    s1 + s2 <= cap when cap is given.
    Cells are walked in product order over the axes; with no axes (a
    zero-sum game) that is one cell with no factor rows. Infeasible cells
    are skipped. The lowest score(game, profile) wins and ties go to the
    earliest cell, so the result is deterministic.
    """
    m, n = game.shape
    zero, one = Fraction(0), Fraction(1)
    rows = [[zero] * m + list(game.a[i]) + [-one, zero] for i in range(m)]
    rows += [list(game.b[:, j]) + [zero] * n + [zero, -one] for j in range(n)]
    rows += [[one] * m + [zero] * n + [zero, zero],
             [zero] * m + [one] * n + [zero, zero]]
    senses = ["<="] * (m + n) + ["=", "="]
    rhs = [zero] * (m + n) + [one, one]
    if cap is not None:
        rows.append([zero] * (m + n) + [one, one])
        senses.append("<=")
        rhs.append(cap)
    for row in factor_rows:
        row = row + [zero, zero]
        rows += [row, row]
        senses += [">=", "<="]
    lower = [zero] * (m + n) + [None, None]
    best = None
    for cell in product(*axes):
        objective = [zero] * m + [-c for c in objective_y(cell)] + [one, one]
        bounds = [e for interval in cell for e in interval]
        sol = solve_lp(linear_program(objective, rows, senses, rhs + bounds,
                                      lower=lower))
        if sol.status == "infeasible":
            continue
        if sol.status != "optimal":
            raise RuntimeError("cell LP cannot be unbounded; this is a bug")
        profile = MixedProfile(tuple(sol.x[:m]), tuple(sol.x[m : m + n]))
        cand = score(game, profile)
        if best is None or cand < best[0]:
            best = (cand, profile)
    return best


def _interval_axis(lo, hi, step):
    if lo == hi:
        return [(lo, hi)]
    cells = []
    a = lo
    while a < hi:
        b = min(a + step, hi)
        cells.append((a, b))
        a += step
    return cells


def approx_absolute(game, eps, rank_guard=DEFAULT_RANK_GUARD, max_rounds=8):
    """Equilibrium approximation with absolute loss guarantee eps * |a+b|.

    Factorize a+b into rank many rank-one terms, grid each factor score
    z_t = x . u_t with step eps|a+b| / (2k max|v_t|), and solve one LP per
    cell: minimize the best-response sum minus the bilinear term linearized
    at the cell midpoints. The candidate with the smallest exact loss wins
    (ties go to the earliest cell, so the result is deterministic). The cell
    holding a true equilibrium always yields loss <= eps|a+b|/2, so the
    first round suffices in theory; if verification ever fails the grid step
    is halved and the search repeats, up to max_rounds.

    A zero-sum game has rank 0: its grid is a single cell whose LP already
    minimizes the exact loss.

    Each cell evaluation is a pure function of (game, factorization, cell),
    so cells may be evaluated concurrently as long as the reduction keeps
    the same (loss, cell order) minimum; the built-in loop is sequential.
    """
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if game.rank_c > rank_guard:
        raise CapExceededError(
            f"payoff-sum rank {game.rank_c} exceeds the guard {rank_guard}"
        )
    factors = rank_factorize(game.c).pairs
    k = len(factors)
    target = eps * game.norm_c
    factor_rows = [list(u_vec) + [Fraction(0)] * game.n for u_vec, _ in factors]
    steps = [target / (2 * k * max(abs(e) for e in v_vec)) for _, v_vec in factors]

    def midpoint_objective(cell):
        centers = [(lo + hi) / 2 for lo, hi in cell]
        return [
            sum(center * v_vec[j] for center, (_, v_vec) in zip(centers, factors))
            for j in range(game.n)
        ]

    for _ in range(max_rounds):
        axes = [
            _interval_axis(min(u_vec), max(u_vec), step)
            for (u_vec, _), step in zip(factors, steps)
        ]
        best = _grid_search(game, factor_rows, axes, midpoint_objective, loss,
                            cap=game.norm_c)
        if best is not None and best[0] <= target:
            return make_report(game, best[1], kind="eps-approximate",
                               parameter=eps)
        steps = [s / 2 for s in steps]
    raise RuntimeError(
        f"no cell met the target after {max_rounds} refinement rounds"
    )


def _geometric_axis(entries, eps):
    """Geometric cell list covering [min, max] of the entries, plus a flag
    for the zero-minimum extension.

    Positive minima get the classical progression [a, a(1+eps)] with the
    last interval truncated at the maximum. A zero minimum gets one extra
    leading cell [0, eta] with eta = max * eps / (1 + eps); the ratio
    certificate for that factor is weakened accordingly. Negative minima are
    rejected: relative certificates need nonnegative scales.
    """
    lo, hi = min(entries), max(entries)
    if lo < 0:
        raise ValueError("relative grid needs nonnegative factor ranges")
    if lo == hi:
        return [(lo, hi)], False
    if lo == 0:
        eta = hi * eps / (1 + eps)
        cells = [(Fraction(0), eta)]
        a = eta
        degraded = True
    else:
        cells = []
        a = lo
        degraded = False
    while a < hi:
        b = min(a * (1 + eps), hi)
        cells.append((a, b))
        a *= 1 + eps
    return cells, degraded


def approx_relative(game, eps, decomp=None, rank_guard=DEFAULT_RANK_GUARD):
    """Equilibrium approximation with a relative gap certificate.

    Needs a nonnegative rank decomposition of a+b (found automatically when
    decomp is None). Both factor scores z_t = x . u_t and w_t = v_t . y are
    gridded geometrically with ratio 1 + eps; each cell's LP minimizes the
    best-response sum under the cell constraints, and candidates are ranked
    by their exact relative gap (loss / best-response sum). In the cell of a
    true equilibrium the gap is at most rho = 1 - (1+eps)^-2 of the
    best-response sum, so the best candidate meets s - x(a+b)y <= rho * s;
    the assertion is enforced unless a zero range minimum forced the
    weakened leading cell, in which case the best candidate found is
    returned with its actual numbers.
    """
    eps = as_fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if decomp is None:
        decomp = rank_factorize(game.c)
    if decomp.shape != game.shape:
        raise ValueError("decomposition shape does not match the game")
    for u_vec, v_vec in decomp.pairs:
        if any(e < 0 for e in u_vec) or any(e < 0 for e in v_vec):
            raise ValueError("decomposition must be entrywise nonnegative")
    if not np.array_equal(decomp.matrix(), game.c):
        raise ValueError("decomposition does not reconstruct a+b")
    if len(decomp.pairs) > rank_guard:
        raise CapExceededError(
            f"decomposition rank {len(decomp.pairs)} exceeds the guard {rank_guard}"
        )
    rho = 1 - 1 / (1 + eps) ** 2

    zero_x, zero_y = [Fraction(0)] * game.m, [Fraction(0)] * game.n
    axes = []
    factor_rows = []
    degraded = False
    for u_vec, v_vec in decomp.pairs:
        z_cells, z_deg = _geometric_axis(u_vec, eps)
        w_cells, w_deg = _geometric_axis(v_vec, eps)
        degraded = degraded or z_deg or w_deg
        axes += [z_cells, w_cells]
        factor_rows += [list(u_vec) + zero_y, zero_x + list(v_vec)]
    best = _grid_search(game, factor_rows, axes, lambda cell: zero_y, _gap_ratio)
    if best is None:
        raise RuntimeError("every profile lies in some cell; this is a bug")
    if not degraded and best[0] > rho:
        raise RuntimeError("relative certificate missed its bound; this is a bug")
    return make_report(game, best[1], kind="relative-approximate", parameter=rho)


def _gap_ratio(game, profile):
    """Exact relative gap: loss over the best-response sum (0 at loss 0)."""
    gap = loss(game, profile)
    if gap == 0:
        return Fraction(0)
    bilinear = fraction_vector(profile.x) @ game.c @ fraction_vector(profile.y)
    return gap / (gap + Fraction(bilinear))
