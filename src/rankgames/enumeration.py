"""Equilibrium enumeration: vertex pairing and support pairs."""

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb

# read through the module, so that a wrapper bound on one of its names (a
# test's recorder, the benchmark's tracer) sees each side walked
from . import polyhedra
from .errors import check_work
from .games import (
    MixedProfile,
    _evaluate_products,
    _products,
    _report,
    _rows_over,
    _strategy_row,
    loss,
)
from .linalg import _solve_rows, pair_row, solve_linear_system


class EquilibriumSet:
    """Extreme equilibria plus their partition into connected components.

    Built by enumerate_equilibria only. found keeps, for each equilibrium
    in profile order, what the walk's certificate computed: the triple
    (x_row, y_row, values) of the integer rows (linalg.pair_row) and the
    (numerator, denominator) pairs of the loss and the two payoffs
    (games._evaluate_products). profiles and reports are built from them on
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
    """All extreme equilibria, found from the vertices of P.

    A vertex pair (x, v) and (y, u) is an equilibrium exactly when the two
    binding-label sets jointly cover 1..m+n: every strategy is then either
    unplayed or a best response. Label r + 1 is row r on both sides, so a
    P vertex's partners are the Q vertices tight at every row it is not
    tight at, the vertices of its complementary face on Q (the lrsnash
    method of Avis, Rosenberg, Savani and von Stengel, 2010).

    P is walked. In a game that is not symmetric, a nondegenerate P
    vertex solves its face itself (_face_partner). Every other P vertex,
    a degenerate one or one whose face system is singular, and every
    vertex of a symmetric game (b = a^T), reads its partners from Q's
    vertex list, the first time a vertex needs it. A game that is not
    symmetric walks Q then. A symmetric game (polyhedra._symmetric) has
    P's list only: Q vertex i is P vertex i with the two m-bit halves of
    its tight mask swapped. Each row has a posting bitset, built from
    Q's tight masks, bit iq set when Q vertex iq is tight at it, and the
    partners are the AND of the postings of the rows the P vertex is not
    tight at (the set bits of full & ~tight), which stops at the first
    empty AND, walked from the lowest bit.

    Each pair is certified on integer rows, with no Fraction made. Each
    vertex's strategy, as a row (linalg.pair_row), must be a mixed
    strategy (games._strategy_row), and its products with the game's rows
    (games._products), b^T x for a P vertex and a y for a Q vertex, are
    computed once with their maximum (_strategy_rows), the first time the
    vertex is in a pair; a face solve hands over the ones it computed. In
    a symmetric game a and b^T have equal integer rows over one
    denominator, so P vertex i's row and products serve as Q vertex i's.
    A pair's loss numerator, from one games._evaluate_products call, must
    then be 0, or RuntimeError is raised. The set keeps the rows and that
    evaluation, and builds each profile and report from them, once, only
    when profiles or reports is read. Output is sorted by profile and
    grouped into connected components.

    No two pairs share a profile. A P vertex binds strategy_len
    independent rows, at most strategy_len - 1 of them nonnegativity rows,
    so some best-response row is tight and v = max_j x b_j is fixed by x.
    Each P vertex thus has its own x, and likewise each Q vertex its own y
    and its own tight mask. Both vertex lists come sorted by point, hence
    by strategy, and a face solve gives at most one partner, so pairing
    in P order and then in Q order yields the equilibria already sorted
    by profile.

    The components are those of the extreme-equilibrium graph of Avis,
    Rosenberg, Savani and von Stengel (2010), whose nodes are the P and Q
    vertices and whose edges are the equilibria: equilibria sharing a P
    vertex (an x) or a Q vertex (a y, keyed by its tight mask, or by its
    index in a symmetric game, where each index is a distinct Q vertex)
    are linked, each to the first one with that vertex. The walk's bound
    on its bases (errors.MAX_WORK) bounds P's list, so also the face
    solves, at most one per P vertex, and Q's list when it is walked; it
    is the only guard.
    """
    p, q = polyhedra.build_polyhedra(game)
    p_vertices = polyhedra.enumerate_vertices(p)
    a_rows, da, bt_rows, db = game._int_form
    m = game.m
    symmetric = polyhedra._symmetric(game)
    beaten = None if symmetric else _beaten(a_rows)
    x_rows = {}
    y_rows = x_rows if symmetric else {}
    postings = None
    found = []
    first = {}
    edges = []
    for ip, vp in enumerate(p_vertices):
        tight = vp.tight
        partners = None
        if beaten is not None and tight.bit_count() == m:
            partners = _face_partner(a_rows, beaten, m, tight)
        if partners is None:
            if postings is None:
                if symmetric:
                    q_vertices, low = p_vertices, (1 << m) - 1
                    masks = [v.tight >> m | (v.tight & low) << m
                             for v in p_vertices]
                else:
                    q_vertices = polyhedra.enumerate_vertices(q)
                    masks = [v.tight for v in q_vertices]
                postings = _postings(masks, m + game.n)
                full = (1 << len(postings)) - 1
                every_q = (1 << len(masks)) - 1
            cover = every_q
            uncovered = full & ~tight
            while uncovered and cover:
                low = uncovered & -uncovered
                uncovered ^= low
                cover &= postings[low.bit_length() - 1]
            partners = []
            while cover:
                low = cover & -cover
                cover ^= low
                iq = low.bit_length() - 1
                key = iq if symmetric else masks[iq]
                y_entry = y_rows.get(key)
                if y_entry is None:
                    y_entry = y_rows[key] = _strategy_rows(
                        a_rows, q_vertices[iq].coords[:-1], "y")
                partners.append((key, y_entry))
        if not partners:
            continue
        x_entry = x_rows.get(ip)
        if x_entry is None:
            x_entry = x_rows[ip] = _strategy_rows(bt_rows, vp.coords[:-1],
                                                  "x")
        for key, y_entry in partners:
            values = _evaluate_products(da, db, *x_entry, *y_entry)[:3]
            if values[0][0] != 0:
                raise RuntimeError(
                    "binding-cover pair failed the loss check; this is a bug"
                )
            i = len(found)
            found.append((x_entry[0], y_entry[0], values))
            edges += [(i, first.setdefault((0, ip), i)),
                      (i, first.setdefault((1, key), i))]
    return EquilibriumSet(tuple(found), _component_partition(len(found), edges))


def _strategy_rows(rows, pairs, name):
    """(row, vector, max): the strategy of the (numerator, denominator)
    pairs as a checked integer row (linalg.pair_row, games._strategy_row),
    and the products of the game's integer rows against it
    (games._products)."""
    row = _strategy_row(pair_row(pairs), name)
    return (row, *_products(rows, row))


def _postings(masks, rows):
    """postings[r] has bit iq set when tight mask iq, the iq-th Q vertex's,
    has bit r set: the vertex is tight at row r, whose label is r + 1 on
    both sides."""
    postings = [0] * rows
    for iq, tight in enumerate(masks):
        while tight:
            low = tight & -tight
            tight ^= low
            postings[low.bit_length() - 1] |= 1 << iq
    return postings


def _beaten(a_rows):
    """beaten[s] lists, for each row of a that pays strictly more than row
    s on some column, the bitmask of those columns (bit j for column j)."""
    cols = range(len(a_rows[0]))
    return [[d for d in {sum(1 << j for j in cols if hi[j] > lo[j])
                         for hi in a_rows} if d]
            for lo in a_rows]


def _face_partner(a_rows, beaten, m, tight):
    """The partners of a nondegenerate P vertex of tight mask tight, read
    off its complementary face on Q: () when the face is empty, the one Q
    vertex on it as the pair (its tight mask, _strategy_rows of its y),
    in a tuple, when it has one, None when the face's system is singular
    and the caller must look in Q's vertex list.

    The vertex's support S is the rows whose nonnegativity row is not
    tight, and T the columns whose best-response row is tight. A point
    of the face plays y on T only and pays every row of S the same,
    which a row beating a row of S on every column of T would beat. So
    the face is empty when some mask of beaten[s], s in S, covers T.
    Otherwise A_{S,T} y - w 1 = 0 and sum y = 1, with w = da u, is solved
    on integer rows (linalg._solve_rows); the point is a vertex of Q
    when y >= 0 and no row pays more than the rows of S, which the
    products A ys of _strategy_rows show. Its payoff is what the rows of
    S are paid, and its tight mask holds the rows paid the most and the
    columns y leaves unplayed.
    """
    t = tight >> m
    support = [i for i in range(m) if not tight >> i & 1]
    if any(not t & ~d for s in support for d in beaten[s]):
        return ()
    cols = [j for j in range(t.bit_length()) if t >> j & 1]
    k = len(cols)
    system = [[a_rows[s][j] for j in cols] + [-1, 0, 1] for s in support]
    system.append([1] * k + [0, 1, 1])
    system = _solve_rows(system)
    if system is None:
        return None
    if any(row[k + 1] < 0 for row in system[:k]):
        return ()
    y = [(0, 1)] * len(a_rows[0])
    for j, row in zip(cols, system):
        y[j] = (row[k + 1], row[-1])
    entry = ys, ay, best = _strategy_rows(a_rows, y, "y")
    if ay[support[0]] != best:
        return ()
    q_tight = sum(1 << i for i, e in enumerate(ay) if e == best)
    q_tight |= sum(1 << (m + j) for j, e in enumerate(ys[:-1]) if e == 0)
    return ((q_tight, entry),)


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
