"""Equilibrium enumeration: vertex pairing, support pairs, zero-sum LPs."""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import CapExceededError
from .games import MixedProfile, is_exact_equilibrium, loss, make_report
from .linalg import solve_linear_system
from .lp import linear_program, solve_lp
from .polyhedra import build_polyhedra, enumerate_vertices

DEFAULT_CAP = 24


@dataclass(frozen=True)
class EquilibriumSet:
    """Extreme equilibria plus their partition into connected components.

    reports are sorted by profile; components holds sorted index tuples into
    reports, themselves sorted by first index.
    """

    reports: tuple
    components: tuple

    @property
    def profiles(self):
        return tuple(r.profile for r in self.reports)

    @property
    def component_count(self):
        return len(self.components)


def _check_cap(game, cap):
    if game.m + game.n > cap:
        raise CapExceededError(
            f"instance size m+n = {game.m + game.n} exceeds the cap {cap}"
        )


def _component_partition(profiles, is_equilibrium):
    """Union-find over the exchangeability graph.

    Two equilibria are adjacent when both cross pairings are equilibria as
    well; equilibria linked this way span a common convex equilibrium set,
    so the transitive closure groups the extreme points by connected
    component. is_equilibrium takes an (x, y) key.
    """
    n = len(profiles)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if is_equilibrium((profiles[i].x, profiles[j].y)) and is_equilibrium(
                (profiles[j].x, profiles[i].y)
            ):
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return tuple(sorted(tuple(sorted(g)) for g in groups.values()))


def enumerate_equilibria(game, cap=DEFAULT_CAP):
    """All extreme equilibria, found by pairing polyhedron vertices.

    A vertex pair (x, v) and (y, u) is an equilibrium exactly when the two
    binding-label sets jointly cover 1..m+n: every strategy is then either
    unplayed or a best response. Each report is built once and its exact
    loss must be zero. Output is deduplicated, sorted by profile, and grouped
    into connected components.

    The components need no further loss checks. The P vertex of a strategy x
    is unique, with payoff max_j x b_j, and its labels are fixed by x; the
    same holds on the Q side. So a cross pair of two found equilibria is an
    equilibrium exactly when its vertices cover all labels, that is, exactly
    when it is itself a found key.
    """
    _check_cap(game, cap)
    p, q = build_polyhedra(game)
    p_vertices = enumerate_vertices(p)
    q_vertices = enumerate_vertices(q)
    full = frozenset(range(1, game.m + game.n + 1))
    found = {}
    for vp in p_vertices:
        for vq in q_vertices:
            if not vp.binding | vq.binding >= full:
                continue
            profile = MixedProfile(vp.strategy, vq.strategy)
            key = (profile.x, profile.y)
            if key in found:
                continue
            report = make_report(game, profile)
            if report.loss != 0:
                raise RuntimeError(
                    "binding-cover pair failed the loss check; this is a bug"
                )
            found[key] = report
    reports = tuple(found[k] for k in sorted(found))
    components = _component_partition(
        [r.profile for r in reports], found.__contains__
    )
    return EquilibriumSet(reports=reports, components=components)


def connected_component_count(game, eqset):
    """Number of connected components spanned by an enumerated set.

    Recomputes the exchangeability partition from the reported profiles, so
    it can also audit an EquilibriumSet built elsewhere.
    """
    return len(_component_partition(
        eqset.profiles,
        lambda key: is_exact_equilibrium(game, MixedProfile(*key)),
    ))


def enumerate_by_supports(game, cap=DEFAULT_CAP):
    """Equilibria by equal-size support pairs; independent of the polyhedra.

    For every support pair (I, J) with |I| = |J|, solve the two payoff
    equalization systems (y on J making rows of I indifferent, x on I making
    columns of J indifferent), keep solutions with strictly positive
    weights whose off-support strategies are not better responses, and
    verify loss zero. Singular systems are skipped: solutions there are not
    extreme points and any extreme equilibrium is recovered from a support
    pair with a nonsingular system. Complete for nondegenerate games (whose
    equilibria all use equal-size supports); sound for every game.
    """
    _check_cap(game, cap)
    m, n = game.shape
    out = {}
    for size in range(1, min(m, n) + 1):
        for rows in combinations(range(m), size):
            for cols in combinations(range(n), size):
                profile = _support_solution(game, rows, cols)
                if profile is None:
                    continue
                if loss(game, profile) != 0:
                    raise RuntimeError(
                        "support solution failed the loss check; this is a bug"
                    )
                out[(profile.x, profile.y)] = profile
    return tuple(out[k] for k in sorted(out))


def _support_solution(game, rows, cols):
    m, n = game.shape
    size = len(rows)
    # y supported on cols equalizes the rows; unknowns (y_cols..., u)
    a_sys = [[game.a[i, j] for j in cols] + [Fraction(-1)] for i in rows]
    a_sys.append([Fraction(1)] * size + [Fraction(0)])
    rhs = [Fraction(0)] * size + [Fraction(1)]
    sol = solve_linear_system(a_sys, rhs)
    if sol is None:
        return None
    y_part, u = sol[:-1], sol[-1]
    if any(e <= 0 for e in y_part):
        return None
    y = [Fraction(0)] * n
    for j, e in zip(cols, y_part):
        y[j] = e
    if any(
        sum(game.a[i, j] * y[j] for j in cols) > u
        for i in range(m)
        if i not in rows
    ):
        return None
    # x supported on rows equalizes the columns; unknowns (x_rows..., v)
    b_sys = [[game.b[i, j] for i in rows] + [Fraction(-1)] for j in cols]
    b_sys.append([Fraction(1)] * size + [Fraction(0)])
    sol = solve_linear_system(b_sys, rhs)
    if sol is None:
        return None
    x_part, v = sol[:-1], sol[-1]
    if any(e <= 0 for e in x_part):
        return None
    x = [Fraction(0)] * m
    for i, e in zip(rows, x_part):
        x[i] = e
    if any(
        sum(game.b[i, j] * x[i] for i in rows) > v
        for j in range(n)
        if j not in cols
    ):
        return None
    return MixedProfile(tuple(x), tuple(y))


def solve_zero_sum(game):
    """One exact equilibrium of a zero-sum game via the minimax LPs.

    Requires a + b = 0. Solves both players' LPs, checks that the two
    optimal values agree exactly, and returns the verified equilibrium
    report (payoff1 is the game value).
    """
    if game.norm_c != 0:
        raise ValueError("game is not zero-sum: a + b has a nonzero entry")
    m, n = game.shape
    # column player: min u with a y <= u componentwise, y a distribution
    rows = [[game.a[i, j] for j in range(n)] + [Fraction(-1)] for i in range(m)]
    rows.append([Fraction(1)] * n + [Fraction(0)])
    lp_col = linear_program(
        [Fraction(0)] * n + [Fraction(1)],
        rows,
        ["<="] * m + ["="],
        [Fraction(0)] * m + [Fraction(1)],
        lower=[Fraction(0)] * n + [None],
    )
    sol_col = solve_lp(lp_col)
    # row player: max v with x a >= v componentwise, x a distribution
    rows = [[game.a[i, j] for i in range(m)] + [Fraction(-1)] for j in range(n)]
    rows.append([Fraction(1)] * m + [Fraction(0)])
    lp_row = linear_program(
        [Fraction(0)] * m + [Fraction(-1)],
        rows,
        [">="] * n + ["="],
        [Fraction(0)] * n + [Fraction(1)],
        lower=[Fraction(0)] * m + [None],
    )
    sol_row = solve_lp(lp_row)
    if sol_col.status != "optimal" or sol_row.status != "optimal":
        raise RuntimeError("minimax LPs must be solvable; this is a bug")
    u = sol_col.objective_value
    v = -sol_row.objective_value
    if u != v:
        raise RuntimeError("minimax values disagree; this is a bug")
    profile = MixedProfile(tuple(sol_row.x[:m]), tuple(sol_col.x[:n]))
    report = make_report(game, profile)
    if report.loss != 0:
        raise RuntimeError("minimax solution failed the loss check; this is a bug")
    return report
