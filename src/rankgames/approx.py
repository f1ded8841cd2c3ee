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


@dataclass(frozen=True)
class AbsoluteCell:
    """One grid cell of the absolute scheme: per-factor interval bounds for
    the row player's factor scores z_t = x . u_t, plus the midpoints the
    objective is anchored to."""

    index: tuple
    bounds: tuple
    centers: tuple


@dataclass(frozen=True)
class RelativeCell:
    """One grid cell of the relative scheme: geometric interval bounds for
    the factor scores z_t = x . u_t and w_t = v_t . y."""

    index: tuple
    z_bounds: tuple
    w_bounds: tuple


def _common_rows(game):
    """Constraint rows shared by both schemes, over (x, y, s1, s2).

    s1 bounds the row player's best pure payoff against y, s2 the column
    player's against x; their sum plays the role of the single s variable of
    the one-shot formulation, with m + n rows instead of m * n.
    """
    m, n = game.shape
    zero_x = [Fraction(0)] * m
    zero_y = [Fraction(0)] * n
    rows = []
    senses = []
    rhs = []
    for i in range(m):
        rows.append(zero_x + [game.a[i, j] for j in range(n)] + [Fraction(-1), Fraction(0)])
        senses.append("<=")
        rhs.append(Fraction(0))
    for j in range(n):
        rows.append([game.b[i, j] for i in range(m)] + zero_y + [Fraction(0), Fraction(-1)])
        senses.append("<=")
        rhs.append(Fraction(0))
    rows.append([Fraction(1)] * m + zero_y + [Fraction(0), Fraction(0)])
    senses.append("=")
    rhs.append(Fraction(1))
    rows.append(zero_x + [Fraction(1)] * n + [Fraction(0), Fraction(0)])
    senses.append("=")
    rhs.append(Fraction(1))
    return rows, senses, rhs


def _factor_row(game, u_vec=None, v_vec=None):
    m, n = game.shape
    x_part = list(u_vec) if u_vec is not None else [Fraction(0)] * m
    y_part = list(v_vec) if v_vec is not None else [Fraction(0)] * n
    return x_part + y_part + [Fraction(0), Fraction(0)]


def _cell_lp(game, objective_y, extra_rows, extra_senses, extra_rhs, cap):
    m, n = game.shape
    rows, senses, rhs = _common_rows(game)
    if cap is not None:
        rows.append([Fraction(0)] * (m + n) + [Fraction(1), Fraction(1)])
        senses.append("<=")
        rhs.append(cap)
    rows += extra_rows
    senses += extra_senses
    rhs += extra_rhs
    objective = (
        [Fraction(0)] * m
        + [Fraction(-c) for c in objective_y]
        + [Fraction(1), Fraction(1)]
    )
    lower = [Fraction(0)] * (m + n) + [None, None]
    return linear_program(objective, rows, senses, rhs, lower=lower)


def _solve_cell(game, lp):
    sol = solve_lp(lp)
    if sol.status == "infeasible":
        return None
    if sol.status != "optimal":
        raise RuntimeError("cell LP cannot be unbounded; this is a bug")
    m, n = game.shape
    profile = MixedProfile(tuple(sol.x[:m]), tuple(sol.x[m : m + n]))
    return profile


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

    if k == 0:
        # zero-sum: a single LP already minimizes the exact loss
        profile = _solve_cell(game, _cell_lp(game, [Fraction(0)] * game.n,
                                             [], [], [], game.norm_c))
        if profile is None or loss(game, profile) > target:
            raise RuntimeError("zero-sum cell LP must solve exactly; this is a bug")
        return make_report(game, profile, kind="eps-approximate", parameter=eps)

    steps = []
    for u_vec, v_vec in factors:
        v_scale = max(abs(e) for e in v_vec)
        steps.append(target / (2 * k * v_scale))

    for round_ in range(max_rounds):
        axes = []
        for (u_vec, _), step in zip(factors, steps):
            axes.append(_interval_axis(min(u_vec), max(u_vec), step))
        best = None
        for index in product(*(range(len(ax)) for ax in axes)):
            bounds = tuple(axes[t][i] for t, i in enumerate(index))
            centers = tuple((lo + hi) / 2 for lo, hi in bounds)
            cell = AbsoluteCell(index=index, bounds=bounds, centers=centers)
            objective_y = [
                sum(
                    center * v_vec[j]
                    for center, (_, v_vec) in zip(cell.centers, factors)
                )
                for j in range(game.n)
            ]
            extra_rows = []
            extra_senses = []
            extra_rhs = []
            for (u_vec, _), (lo, hi) in zip(factors, cell.bounds):
                row = _factor_row(game, u_vec=u_vec)
                extra_rows += [row, row]
                extra_senses += [">=", "<="]
                extra_rhs += [lo, hi]
            profile = _solve_cell(
                game,
                _cell_lp(game, objective_y, extra_rows, extra_senses,
                         extra_rhs, game.norm_c),
            )
            if profile is None:
                continue
            cand = loss(game, profile)
            if best is None or cand < best[0]:
                best = (cand, profile)
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

    axes = []
    degraded = False
    for u_vec, v_vec in decomp.pairs:
        z_cells, z_deg = _geometric_axis(u_vec, eps)
        w_cells, w_deg = _geometric_axis(v_vec, eps)
        degraded = degraded or z_deg or w_deg
        axes.append(z_cells)
        axes.append(w_cells)

    best = None
    for index in product(*(range(len(ax)) for ax in axes)):
        z_bounds = tuple(axes[2 * t][index[2 * t]]
                         for t in range(len(decomp.pairs)))
        w_bounds = tuple(axes[2 * t + 1][index[2 * t + 1]]
                         for t in range(len(decomp.pairs)))
        cell = RelativeCell(index=index, z_bounds=z_bounds, w_bounds=w_bounds)
        extra_rows = []
        extra_senses = []
        extra_rhs = []
        for (u_vec, v_vec), (zlo, zhi), (wlo, whi) in zip(
            decomp.pairs, cell.z_bounds, cell.w_bounds
        ):
            zrow = _factor_row(game, u_vec=u_vec)
            extra_rows += [zrow, zrow]
            extra_senses += [">=", "<="]
            extra_rhs += [zlo, zhi]
            wrow = _factor_row(game, v_vec=v_vec)
            extra_rows += [wrow, wrow]
            extra_senses += [">=", "<="]
            extra_rhs += [wlo, whi]
        profile = _solve_cell(
            game,
            _cell_lp(game, [Fraction(0)] * game.n, extra_rows, extra_senses,
                     extra_rhs, None),
        )
        if profile is None:
            continue
        gap = loss(game, profile)
        if gap == 0:
            ratio = Fraction(0)
        else:
            s_exact = gap + Fraction(
                fraction_vector(profile.x) @ game.c @ fraction_vector(profile.y)
            )
            ratio = gap / s_exact
        if best is None or ratio < best[0]:
            best = (ratio, profile)
    if best is None:
        raise RuntimeError("every profile lies in some cell; this is a bug")
    if not degraded and best[0] > rho:
        raise RuntimeError("relative certificate missed its bound; this is a bug")
    return make_report(game, best[1], kind="relative-approximate", parameter=rho)
