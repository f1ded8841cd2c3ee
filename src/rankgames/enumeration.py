"""Equilibrium enumeration: vertex pairing and support pairs."""

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb

from .errors import check_work
from .games import (
    MixedProfile,
    _evaluate_rows,
    _report,
    _rows_over,
    _strategy_row,
    loss,
)
from .linalg import pair_row, solve_linear_system
from .polyhedra import _vertex_lists


class EquilibriumSet:
    """Extreme equilibria plus their partition into connected components.

    Built by enumerate_equilibria only. found keeps, for each equilibrium
    in profile order, what the walk's certificate computed: the triple
    (x_row, y_row, values) of the integer rows (linalg.pair_row) and the
    (numerator, denominator) pairs of the loss and the two payoffs
    (games._evaluate_rows). profiles and reports are built from them on
    first read and kept; components holds sorted index tuples into them,
    themselves sorted by first index.
    Immutable: assignment raises AttributeError. A copy, a deep copy or an
    unpickled set carries the views built so far.
    """

    def __init__(self, found, components):
        vars(self).update(_found=found, components=components)

    def __setattr__(self, name, value):
        raise AttributeError(f"EquilibriumSet is immutable: cannot set {name}")

    @cached_property
    def profiles(self):
        return tuple(MixedProfile.from_int_rows(xs, ys)
                     for xs, ys, _ in self._found)

    @cached_property
    def reports(self):
        return tuple(_report(profile, values) for profile, (_, _, values)
                     in zip(self.profiles, self._found))

    @property
    def component_count(self):
        return len(self.components)


def _component_partition(n, edges):
    """Connected components of the graph on 0..n-1 with the given edges.

    One union-find; returns sorted index tuples, sorted by first index.
    """
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in edges:
        parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return tuple(sorted(tuple(g) for g in groups.values()))


def enumerate_equilibria(game):
    """All extreme equilibria, found by pairing polyhedron vertices.

    A vertex pair (x, v) and (y, u) is an equilibrium exactly when the two
    binding-label sets jointly cover 1..m+n: every strategy is then either
    unplayed or a best response. Label r + 1 is row r on both sides, so
    the pairing reads the vertices' tight-row masks: each row has a
    posting bitset, bit iq set when Q vertex iq is tight at it, and a P
    vertex's partners are the AND of the postings of its rows not tight
    (the set bits of full & ~tight), which stops at the first empty AND,
    walked from the lowest bit. Each cover pair is certified on integer
    rows, with no Fraction made: the two vertices' strategies, as rows
    (linalg.pair_row), must be mixed strategies (games._strategy_row), and
    the loss's numerator from one games._evaluate_rows call must be 0.
    The set keeps the rows and that evaluation, and builds each profile
    and report from them, once, only when profiles or reports is read.
    Output is sorted by profile and grouped into connected components.

    No two cover pairs share a profile. A P vertex binds strategy_len
    independent rows, at most strategy_len - 1 of them nonnegativity rows,
    so some best-response row is tight and v = max_j x b_j is fixed by x.
    Each P vertex thus has its own x, and likewise each Q vertex its own y.
    Both vertex lists come sorted by point, hence by strategy, so pairing
    in P order and then in Q index order yields the equilibria already
    sorted by profile.

    The components are those of the extreme-equilibrium graph of Avis,
    Rosenberg, Savani and von Stengel (2010), whose nodes are the P and Q
    vertices and whose edges are the equilibria: equilibria sharing a P
    vertex (an x) or a Q vertex (a y) are linked, each to the first one
    with that vertex. The walk's bound on its bases (errors.MAX_WORK)
    bounds both vertex lists, so also the pairing; it is the only guard.
    A symmetric game (b = a^T) walks P only: its Q list is P's relabelled
    (polyhedra._vertex_lists).
    """
    p_vertices, q_vertices = _vertex_lists(game)
    # postings[r] has bit iq set when Q vertex iq is tight at row r, whose
    # label is r + 1 on both sides
    postings = [0] * (game.m + game.n)
    for iq, vq in enumerate(q_vertices):
        tight = vq.tight
        while tight:
            low = tight & -tight
            tight ^= low
            postings[low.bit_length() - 1] |= 1 << iq
    full = (1 << len(postings)) - 1
    every_q = (1 << len(q_vertices)) - 1
    found = []
    first = {}
    edges = []
    for ip, vp in enumerate(p_vertices):
        cover = every_q
        uncovered = full & ~vp.tight
        while uncovered and cover:
            low = uncovered & -uncovered
            uncovered ^= low
            cover &= postings[low.bit_length() - 1]
        while cover:
            low = cover & -cover
            cover ^= low
            iq = low.bit_length() - 1
            xs = _strategy_row(pair_row(vp.coords[:-1]), "x")
            ys = _strategy_row(pair_row(q_vertices[iq].coords[:-1]), "y")
            values = _evaluate_rows(game, xs, ys)[:3]
            if values[0][0] != 0:
                raise RuntimeError(
                    "binding-cover pair failed the loss check; this is a bug"
                )
            i = len(found)
            found.append((xs, ys, values))
            edges += [(i, first.setdefault((0, ip), i)),
                      (i, first.setdefault((1, iq), i))]
    return EquilibriumSet(tuple(found), _component_partition(len(found), edges))


def enumerate_by_supports(game):
    """Equilibria by equal-size support pairs; independent of the polyhedra.

    For every support pair (I, J) with |I| = |J|, solve the two payoff
    equalization systems (y on J making rows of I indifferent, x on I making
    columns of J indifferent), keep solutions with strictly positive
    weights whose off-support strategies are not better responses, and
    verify loss zero. Singular systems are skipped: solutions there are not
    extreme points and any extreme equilibrium is recovered from a support
    pair with a nonsingular system. Complete for nondegenerate games (whose
    equilibria all use equal-size supports); sound for every game.
    There are comb(m + n, m) - 1 pairs (Vandermonde's identity); above
    errors.MAX_WORK, CapExceededError is raised before any solve.
    """
    m, n = game.shape
    check_work(comb(m + n, m) - 1, "support pairs")
    a_rows, da, bt_rows, db = game._int_form
    a, bt = _rows_over(a_rows, da), _rows_over(bt_rows, db)
    out = {}
    for size in range(1, min(m, n) + 1):
        for rows in combinations(range(m), size):
            for cols in combinations(range(n), size):
                y = _equalizer(a, rows, cols)
                x = None if y is None else _equalizer(bt, cols, rows)
                if x is None:
                    continue
                profile = MixedProfile(x, y)
                if loss(game, profile) != 0:
                    raise RuntimeError(
                        "support solution failed the loss check; this is a bug"
                    )
                out[(profile.x, profile.y)] = profile
    return tuple(out[k] for k in sorted(out))


def _equalizer(payoff, rows, cols):
    """The strategy on cols that makes the payoff rows in rows indifferent.

    payoff[i][j] is row i's payoff against pure strategy j. Solves for the
    weights on cols and the common value u, and returns the full strategy
    (zero off cols) when every weight is positive and no row outside rows
    pays more than u; otherwise, or when the system is singular, None.
    """
    size = len(rows)
    system = [[payoff[i][j] for j in cols] + [Fraction(-1)] for i in rows]
    system.append([Fraction(1)] * size + [Fraction(0)])
    sol = solve_linear_system(system, [Fraction(0)] * size + [Fraction(1)])
    if sol is None:
        return None
    weights, u = sol[:-1], sol[-1]
    if any(e <= 0 for e in weights):
        return None
    strategy = [Fraction(0)] * len(payoff[0])
    for j, e in zip(cols, weights):
        strategy[j] = e
    if any(
        sum(payoff[i][j] * strategy[j] for j in cols) > u
        for i in range(len(payoff))
        if i not in rows
    ):
        return None
    return tuple(strategy)
