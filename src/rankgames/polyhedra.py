"""Best-response polyhedra of a bimatrix game and their vertex enumeration."""

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

import numpy as np

from .errors import check_work
from .linalg import as_fraction, int_row, min_ratio_rows, pivot, reduced


@dataclass(frozen=True)
class BestResponsePolyhedron:
    """One player's best-response polyhedron in (strategy, payoff) space.

    side 'P' is the row player's: points (x, v) with x >= 0, x b <= v per
    column, sum x = 1. side 'Q' is the column player's: points (y, u) with
    a y <= u per row, y >= 0, sum y = 1.

    Inequality rows are stored as ineqs z <= 0 and carry 1-based labels
    1..m+n, the convention the vertex-census and joint-cover statements are
    written in: labels 1..m are the row player's strategies (x_i >= 0 on the
    P side, row i's best-response inequality on the Q side) and labels
    m+1..m+n are the column player's (column j's best-response inequality on
    the P side, y_j >= 0 on the Q side).
    """

    side: str
    strategy_len: int
    ineqs: np.ndarray
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

    __slots__ = ("coords", "tight", "_point", "_binding")

    def __init__(self, point, binding):
        point, binding = tuple(map(as_fraction, point)), frozenset(binding)
        self._fill(tuple((e.numerator, e.denominator) for e in point),
                   sum(1 << (label - 1) for label in binding), point, binding)

    @classmethod
    def _walked(cls, coords, tight):
        """The vertex of the walk's int pairs and tight-row mask, whose
        point and binding are left to be built on first read."""
        vertex = object.__new__(cls)
        vertex._fill(coords, tight, None, None)
        return vertex

    def _fill(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"PolyhedronVertex is immutable: cannot set {name}")

    @property
    def point(self):
        if self._point is None:
            object.__setattr__(self, "_point", tuple(
                Fraction(n, d) for n, d in self.coords))
        return self._point

    @property
    def binding(self):
        if self._binding is None:
            tight = self.tight
            object.__setattr__(self, "_binding", frozenset(
                r + 1 for r in range(tight.bit_length()) if tight >> r & 1))
        return self._binding

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


def _side(side, payoff):
    """One player's polyhedron; payoff[r, i] is response r's payoff against
    the player's pure strategy i.

    Rows are the nonnegativity rows -z_i <= 0 and the best-response rows
    payoff[r] . z - payoff_coordinate <= 0, in two blocks with labels 1..m+n
    in row order. Labels 1..m belong to the row player, so side P puts its
    nonnegativity block first and side Q its best-response block.
    """
    responses, slen = payoff.shape
    zero, one = Fraction(0), Fraction(1)
    nonneg = [[-one if c == i else zero for c in range(slen + 1)]
              for i in range(slen)]
    br = [list(row) + [-one] for row in payoff]
    rows = nonneg + br if side == "P" else br + nonneg
    ineqs = np.array(rows, dtype=object)
    ineqs.flags.writeable = False
    nonneg_at, br_at = (0, slen) if side == "P" else (responses, 0)
    return BestResponsePolyhedron(
        side=side,
        strategy_len=slen,
        ineqs=ineqs,
        labels=tuple(range(1, len(rows) + 1)),
        br_labels=frozenset(range(br_at + 1, br_at + responses + 1)),
        nonneg_labels=frozenset(range(nonneg_at + 1, nonneg_at + slen + 1)),
    )


def build_polyhedra(game):
    """The pair (P side, Q side) of best-response polyhedra of the game.

    One construction per player: P responds to x through the columns of b,
    Q to y through the rows of a.
    """
    return _side("P", game.b.T), _side("Q", game.a)


def _start_rows(poly):
    """Inequality rows set to equality at the walk's start basis.

    The first pure strategy, its lowest-indexed best-response row, and the
    nonnegativity rows of every other strategy. The point is that strategy
    with its best payoff, so every inequality holds, and these rows together
    with the normalization row fix each coordinate, so the basis is
    nonsingular.
    """
    labels = poly.labels
    nonneg = [r for r, lab in enumerate(labels) if lab in poly.nonneg_labels]
    br = [r for r, lab in enumerate(labels) if lab in poly.br_labels]
    # column 0 of a best-response row is that response's payoff against the
    # first strategy; max keeps the lowest-indexed of the tied rows
    return nonneg[1:] + [max(br, key=lambda r: poly.ineqs[r, 0])]


def enumerate_vertices(poly):
    """All vertices, each with its complete binding label set.

    Pivot walk over the feasible bases. The tableau has one row per
    inequality, G_i z + s_i = 0 with slack s_i >= 0, and the normalization
    row. The point coordinates z are free: they are pivoted in once and stay
    basic, so a basis is the set of strategy_len inequality rows whose
    slacks are nonbasic, kept as a bitmask with bit r for row r. From each
    basis every nonbasic slack is tried as the entering variable, and every
    basic slack row tied at the minimum ratio gives a neighbour, degenerate
    ratio-0 pivots included; a seen-set of these masks makes each basis
    pivot into the walk once. The rows are integer rows (linalg.int_row)
    with the right-hand side at row[-2].

    A basis's tight mask is its nonbasic rows plus the basic slacks at 0.
    It is the set of rows tight at the basis's point, and at a vertex it
    fixes the point (its nonbasic rows and the normalization row form a
    nonsingular system), so vertices are keyed by it. When the mask is
    new, the vertex keeps it and the coordinate rows' (rhs, denominator)
    int pairs; no Fraction is made until its point or binding is read.

    Each basis costs one pivot, the d that bring in the coordinates
    included; check_work raises CapExceededError before the pivot past
    errors.MAX_WORK.

    Completeness: every vertex v* is the unique optimum of some linear
    objective. Bland's simplex method run on that objective from the start
    basis terminates at an optimal basis, whose point is v*, and it makes
    only min-ratio pivots on slack columns; the walk follows every such
    pivot, so it reaches a basis of v*. Output is sorted by point, in the
    order of the Fraction tuples, so the order is deterministic; two points
    are compared on their int pairs by cross-multiplying (_compare_points),
    and no two vertices tie, since the mask is a function of the point.
    """
    k, d = poly.ineqs.shape
    rows = []
    for r in range(k):
        row = int_row(list(poly.ineqs[r]))
        den = row.pop()
        row += [0] * (k + 1) + [den]
        row[d + r] = den
        rows.append(row)
    rows.append([1] * (d - 1) + [0] * (k + 1) + [1, 1])
    free = _start_rows(poly) + [k]
    coord_rows = []
    for c in range(d):
        r = next(r for r in free if rows[r][c] != 0)
        pivot(rows, r, c)
        free.remove(r)
        coord_rows.append(r)
    # the coordinates never leave, so their unit columns are never read;
    # a coordinate row may keep a common factor once its unit entry is gone
    rows = [reduced(row[d:]) for row in rows]
    slack_rows = [r for r in range(k) if r not in coord_rows]
    basic = {r: r for r in slack_rows}  # tableau row -> its basic slack
    nonbasic = sum(1 << r for r in range(k) if r not in basic)
    seen = {nonbasic}
    queue = deque([(rows, basic, nonbasic)])
    found = {}
    while queue:
        rows, basic, nonbasic = queue.popleft()
        tight = nonbasic
        for r, i in basic.items():
            if rows[r][-2] == 0:
                tight |= 1 << i
        if tight not in found:
            found[tight] = PolyhedronVertex._walked(
                tuple([(rows[r][-2], rows[r][-1]) for r in coord_rows]), tight)
        rest = nonbasic
        while rest:
            low = rest & -rest
            rest ^= low
            j = low.bit_length() - 1
            # no row at all is an unbounded edge
            for r in min_ratio_rows(rows, slack_rows, j):
                key = nonbasic ^ low | 1 << basic[r]
                if key in seen:
                    continue
                # the pivot into this basis is number d + len(seen)
                check_work(d + len(seen), "or more bases in a vertex walk")
                seen.add(key)
                step = list(rows)
                pivot(step, r, j)
                queue.append((step, {**basic, r: j}, key))
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
    strategy_len labels; no vertex binds fewer. The walk's bound on its bases
    (errors.MAX_WORK) applies to each side.
    """
    return all(
        vertex.tight.bit_count() == poly.strategy_len
        for poly in build_polyhedra(game)
        for vertex in enumerate_vertices(poly)
    )
