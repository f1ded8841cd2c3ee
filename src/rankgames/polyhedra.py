"""Best-response polyhedra of a bimatrix game and their vertex enumeration."""

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key

from .errors import check_work
from .linalg import as_fraction, min_ratio_rows, pivot, reduced


@dataclass(frozen=True)
class BestResponsePolyhedron:
    """One player's best-response polyhedron in (strategy, payoff) space.

    side 'P' is the row player's: points (x, v) with x >= 0, x b <= v per
    column, sum x = 1. side 'Q' is the column player's: points (y, u) with
    a y <= u per row, y >= 0, sum y = 1.

    The polyhedron keeps its payoff rows as ints over one positive
    denominator: payoff[r][i] / den is response r's payoff against the
    player's pure strategy i (the rows of b^T on side P, of a on side Q,
    taken from the game's integer form). Two polyhedra are equal, and hash
    equal, when their fields are: equal games give equal polyhedra.

    Its inequality rows, the nonnegativity rows and the best-response rows,
    carry 1-based labels 1..m+n, the convention the vertex-census and
    joint-cover statements are written in: labels 1..m are the row
    player's strategies (x_i >= 0 on the P side, row i's best-response
    inequality on the Q side) and labels m+1..m+n are the column player's
    (column j's best-response inequality on the P side, y_j >= 0 on the Q
    side).
    """

    side: str
    strategy_len: int
    payoff: tuple
    den: int
    labels: tuple
    br_labels: frozenset
    nonneg_labels: frozenset

    @property
    def dim(self):
        return self.strategy_len + 1


class PolyhedronVertex:
    """A vertex: point = (strategy coordinates..., payoff); binding holds the
    1-based labels of the inequalities tight at the point. Two vertices are
    equal when their points and their bindings are.

    A vertex is kept in ints: coords holds one (numerator, denominator)
    pair per coordinate, the denominator positive, and tight is the bitmask
    of the tight rows, bit r for row r, whose label is r + 1. point and
    binding are built from them on first read. Immutable.
    """

    def __init__(self, point, binding):
        point, binding = tuple(map(as_fraction, point)), frozenset(binding)
        vars(self).update(
            coords=tuple((e.numerator, e.denominator) for e in point),
            tight=sum(1 << (label - 1) for label in binding),
            point=point, binding=binding)

    @classmethod
    def _walked(cls, coords, tight):
        """The vertex of the walk's int pairs and tight-row mask, whose
        point and binding are left to be built on first read."""
        vertex = object.__new__(cls)
        vars(vertex).update(coords=coords, tight=tight)
        return vertex

    def __setattr__(self, name, value):
        raise AttributeError(f"PolyhedronVertex is immutable: cannot set {name}")

    @cached_property
    def point(self):
        return tuple(Fraction(n, d) for n, d in self.coords)

    @cached_property
    def binding(self):
        tight = self.tight
        return frozenset(r + 1 for r in range(tight.bit_length())
                         if tight >> r & 1)

    @property
    def strategy(self):
        return self.point[:-1]

    @property
    def payoff(self):
        return self.point[-1]

    @property
    def support(self):
        return tuple(i for i, (n, _) in enumerate(self.coords[:-1]) if n > 0)

    def __eq__(self, other):
        if not isinstance(other, PolyhedronVertex):
            return NotImplemented
        return self.tight == other.tight and self.point == other.point

    def __hash__(self):
        return hash((self.point, self.binding))

    def __repr__(self):
        return f"PolyhedronVertex(point={self.point!r}, binding={self.binding!r})"


def _side(side, payoff, den):
    """One player's polyhedron over the integer rows payoff, over den:
    payoff[r][i] / den is response r's payoff against the player's pure
    strategy i.

    Labels 1..m+n number the rows of two blocks, the nonnegativity rows and
    the best-response rows. Labels 1..m belong to the row player, so side P
    puts its nonnegativity block first and side Q its best-response block.
    """
    responses, slen = len(payoff), len(payoff[0])
    nonneg_at, br_at = (0, slen) if side == "P" else (responses, 0)
    return BestResponsePolyhedron(
        side=side,
        strategy_len=slen,
        payoff=tuple(map(tuple, payoff)),
        den=den,
        labels=tuple(range(1, responses + slen + 1)),
        br_labels=frozenset(range(br_at + 1, br_at + responses + 1)),
        nonneg_labels=frozenset(range(nonneg_at + 1, nonneg_at + slen + 1)),
    )


def build_polyhedra(game):
    """The pair (P side, Q side) of best-response polyhedra of the game.

    One construction per player, on the game's integer rows: P responds to
    x through the columns of b (the rows of b^T), Q to y through the rows
    of a.
    """
    a_rows, da, bt_rows, db = game._int_form
    return _side("P", bt_rows, db), _side("Q", a_rows, da)


def _start_tableau(poly):
    """The walk's start dictionary in slack space, written down from the
    payoff rows M = poly.payoff over D = poly.den.

    The start basis is the first pure strategy with its best response r*,
    the lowest-indexed row among those tied at the largest payoff against
    strategy 1. Its nonbasic slacks are those of the nonnegativity rows of
    strategies 2.., which are x_2, x_3, ... themselves, and r*'s. So
    x_1 = 1 - sum_{i>=2} x_i, the payoff is v = M_{r*} x / D + s_{r*}, and
    every other best-response row r has s_r = v - M_r x / D. Each is an
    integer row over the nonbasic slacks, one slot each in that order
    (x_2, ..., then s_{r*}), with the right-hand side at row[-2]: one per
    basic slack (x_1's nonnegativity row and every best-response row but
    r*'s), in row order, then the payoff row.

    Returns (rows, basic, nonbasic): basic[t] is the row whose slack is
    basic in tableau row t, and nonbasic[j] the row whose slack holds
    slot j; the payoff row, last, has no basic slack.
    """
    payoff, den, slen = poly.payoff, poly.den, poly.strategy_len
    nonneg = min(poly.nonneg_labels) - 1  # strategy i's row is nonneg + i
    br = min(poly.br_labels) - 1  # response r's row is br + r
    first = [row[0] for row in payoff]
    best = first.index(max(first))
    top = payoff[best]
    value = [top[0] - e for e in top[1:]] + [-den, top[0], den]
    start = {nonneg: [1] * (slen - 1) + [0, 1, 1]}
    for r, resp in enumerate(payoff):
        if r != best:
            row = [v - resp[0] + e for v, e in zip(value, resp[1:])]
            row += [-den, top[0] - resp[0], den]
            start[br + r] = row
    basic = sorted(start)
    nonbasic = [nonneg + i for i in range(1, slen)] + [br + best]
    return ([reduced(start[s]) for s in basic] + [reduced(value)], basic,
            nonbasic)


def enumerate_vertices(poly):
    """All vertices, each with its complete binding label set.

    Pivot walk over the feasible bases, in slack space. Each inequality
    row r has a slack s_r >= 0, and x_i is itself the slack of strategy
    i's nonnegativity row, so the tableau needs no coordinate columns. It
    is a dictionary: one row per basic slack and the payoff row, which
    expresses v and which the ratio test never reads, each over the
    strategy_len nonbasic slacks, one slot each (_start_tableau writes it
    down from the payoff rows). A basis is the set of rows whose slacks
    are nonbasic, kept as a bitmask with bit r for row r, beside the list
    of the basic rows, one per tableau row, and the list of the nonbasic
    rows, one per slot. From each basis every nonbasic slack
    is tried as the entering variable, in ascending row order, and every
    basic slack row tied at the minimum ratio gives a neighbour, degenerate
    ratio-0 pivots included; the leaving slack takes the entering one's
    slot. A seen-set of the masks makes each basis pivot into the walk
    once, and an edge out of a nondegenerate basis is ratio-tested from
    that end only (see Completeness).

    A basis's tight mask is its nonbasic rows plus the basic slacks at 0.
    It is the set of rows tight at the basis's point, and at a vertex it
    fixes the point (its nonbasic rows and the normalization row form a
    nonsingular system), so vertices are keyed by it. When the mask is
    new, the vertex keeps it and its coordinates as (rhs, denominator) int
    pairs: x_i is the right-hand side of its slack's row when that slack
    is basic and 0 when it is not, v the payoff row's. No Fraction is made
    until its point or binding is read.

    Each basis past the first costs one pivot. check_work raises
    CapExceededError before the pivot that would take d plus the bases
    seen past errors.MAX_WORK. The d stands for the d pivots a walk in
    (strategy, payoff) space spends bringing the coordinates in; counting
    it keeps the bound where it was, so the same games are admitted and
    refused: identity_game(12), 4095 bases a side, stays refused.

    Completeness: every vertex v* is the unique optimum of some linear
    objective. Bland's simplex method run on that objective from the start
    basis terminates at an optimal basis, whose point is v*, and it makes
    only min-ratio pivots on slack columns; the walk follows every such
    pivot, so it reaches a basis of v*. One kind of test is skipped, and
    it could only lead to a seen basis. Let basis A be nondegenerate (no
    basic slack at 0, so its tight mask is its mask), and let its pivot on
    entering slack j and leaving slack i reach the new basis K. Every
    basic variable of K is linear along that edge, from K, where s_i = 0,
    to A, where s_i > 0. Each is >= 0 at both ends, and each but s_j is
    > 0 at A, where s_j = 0. So in K's ratio test on entering s_i, every
    row but s_j's has a ratio above the edge's length, and s_j's row, the
    one row at the minimum, leads back to A. The walk records i with K,
    new or already seen, and skips that test if K is taken from the queue
    later: the seen set, the vertices found and every check_work call are
    the full walk's, and an edge between two nondegenerate bases is
    tested once, not twice.

    Output is sorted by point, in the order of the Fraction tuples, so the
    order is deterministic; two points are compared on their int pairs by
    cross-multiplying (_compare_points), and no two vertices tie, since
    the mask is a function of the point.
    """
    d = poly.dim
    nonneg = sorted(label - 1 for label in poly.nonneg_labels)
    rows, basic, nonbasic = _start_tableau(poly)
    slack_rows = range(len(basic))
    mask = sum(1 << i for i in nonbasic)
    seen = {mask}
    queue = deque([(rows, basic, nonbasic, mask)])
    found = {}
    # a basis's mask -> bit i for each edge (entering slack i) already
    # ratio-tested from its other, nondegenerate end
    tested = {}
    while queue:
        rows, basic, nonbasic, mask = queue.popleft()
        skip = tested.pop(mask, 0)
        tight = mask
        for r, i in enumerate(basic):
            if rows[r][-2] == 0:
                tight |= 1 << i
        if tight not in found:
            coords = [(0, 1) if mask >> i & 1
                      else tuple(rows[basic.index(i)][-2:]) for i in nonneg]
            coords.append(tuple(rows[-1][-2:]))
            found[tight] = PolyhedronVertex._walked(tuple(coords), tight)
        nondegenerate = tight == mask
        for j, col in sorted(zip(nonbasic, range(len(nonbasic)))):
            if skip >> j & 1:
                continue  # its one min-ratio row leads back to a seen basis
            # no row at all is an unbounded edge
            for r in min_ratio_rows(rows, slack_rows, col):
                key = mask ^ 1 << j | 1 << basic[r]
                if nondegenerate:
                    tested[key] = tested.get(key, 0) | 1 << basic[r]
                if key in seen:
                    continue
                check_work(d + len(seen), "or more bases in a vertex walk")
                seen.add(key)
                step = list(rows)
                pivot(step, r, col)
                entered, left = basic[:], nonbasic[:]
                entered[r], left[col] = j, basic[r]
                queue.append((step, entered, left, key))
    return tuple(sorted(found.values(), key=_BY_POINT))


def _compare_points(u, v):
    """-1, 0 or 1 as vertex u's point is below, at or above v's in the
    order of Fraction tuples, decided on the int pairs: the denominators
    are positive, so p/q < r/s exactly when p s < r q."""
    for (p, q), (r, s) in zip(u.coords, v.coords):
        left, right = p * s, r * q
        if left != right:
            return -1 if left < right else 1
    return 0


_BY_POINT = cmp_to_key(_compare_points)


def _symmetric(game):
    """Whether b = a^T: a's integer rows are b^T's over the same
    denominator, the integer form of a matrix being canonical. P and Q
    then have the same payoff rows and denominator."""
    a_rows, da, bt_rows, db = game._int_form
    return da == db and a_rows == bt_rows


def _vertex_lists(game):
    """The game's vertex lists, each as enumerate_vertices gives it: P's,
    then Q's unless the game is symmetric; a generator, so a caller that
    stops after the P list never walks Q. enumeration.enumerate_equilibria
    asks for the Q list only when a P vertex cannot solve its
    complementary face, and is_nondegenerate only when every P vertex is
    nondegenerate.

    A symmetric game (_symmetric) has the one list. Its two polyhedra are
    one polytope with the label blocks swapped: Q's row r is P's row
    (r + m) mod 2m (von Stengel 2002). So Q vertex i is P vertex i, its
    point the same and its tight mask P's with the two m-bit halves
    swapped, and a caller reads Q's vertices off P's list. One walk counts
    the bases a walk of Q would, so the work bound refuses the same games.
    """
    p, q = build_polyhedra(game)
    yield enumerate_vertices(p)
    if not _symmetric(game):
        yield enumerate_vertices(q)


def is_nondegenerate(game):
    """Nondegeneracy of the game, checked on the polyhedron vertices.

    The defining condition: no mixed x has more than |support(x)| pure best
    responses for the other player, and likewise for y. A violation at any
    strategy forces a violation at some vertex of the corresponding
    best-response polyhedron (every face of a pointed polyhedron contains a
    vertex, and the binding-label count only grows toward the vertex), so
    checking vertices is sound and complete.

    A vertex binds the nonnegativity labels of the strategy_len - |support|
    unplayed strategies plus its best-response labels. So it has more best
    responses than its support size exactly when it binds more than
    strategy_len labels; no vertex binds fewer. A symmetric game checks P
    alone (_vertex_lists gives its one list): Q's tight masks are P's with
    the halves swapped, so they have the same bit counts. The walk's bound
    on its bases (errors.MAX_WORK) applies to each side walked, and a
    degenerate P vertex stops the check before Q is walked. So a game that
    is not symmetric and whose P vertices are all nondegenerate has Q
    walked in full, and the check raises CapExceededError on a game whose Q
    passes the bound even when enumerate_equilibria, which walks P only,
    solves it (a random 4x40 game, for one).
    """
    return all(
        vertex.tight.bit_count() == len(vertex.coords) - 1
        for vertices in _vertex_lists(game)
        for vertex in vertices
    )
