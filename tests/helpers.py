"""Shared generators for the seeded randomized tests, and reference oracles."""

import sys
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import numpy as np

from rankgames import (
    BimatrixGame,
    GamePerturbation,
    MixedProfile,
    RankFactorization,
    best_response_values,
    is_exact_equilibrium,
    linear_program,
    make_report,
    matrix_rank,
)
from rankgames.approx import (
    SVD_MAX_DENOMINATOR,
    _geometric_axis,
    _interval_axis,
)
from rankgames.enumeration import _component_partition
from rankgames.games import _eps_threshold
from rankgames.linalg import (
    _fraction_rows,
    as_fraction,
    int_row,
    reduced,
    solve_linear_system,
)
from rankgames.polyhedra import (
    PolyhedronVertex,
    build_polyhedra,
    enumerate_vertices,
)


# a rank-1 game whose factor u = (3, 1, -2) takes negative values: at eps
# 1/2 its axis has cells entirely below 0, whose factor rows have negative
# right-hand sides on both sides
NEG = BimatrixGame([[2, -1, 0], [1, 3, -2], [0, 1, 1]],
                   [[-5, -5, -3], [-2, -5, 1], [2, 3, 1]])


# a game whose integer rows share a factor with their common denominator:
# a's third row is (2, 0, 4) over 2 and b's second column (3, 0, 6) over 3,
# so the grid's best-response rows must be reduced to be int_row of their
# Fractions; no cell of its absolute grid at eps 1 has loss 0
SHARED = BimatrixGame(
    [["3/2", 0, "1/2"], [0, "1/2", 1], [1, 0, 2]],
    [["1/3", 1, 0], [0, 0, "1/3"], ["2/3", 2, "4/3"]])


def random_matrix(rng, m, n, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def random_game(rng, m, n, lo=-9, hi=9):
    return BimatrixGame(random_matrix(rng, m, n, lo, hi),
                        random_matrix(rng, m, n, lo, hi))


def random_simplex_point(rng, d):
    weights = [rng.randint(1, 9) for _ in range(d)]
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def random_profile(rng, m, n):
    return MixedProfile(random_simplex_point(rng, m),
                        random_simplex_point(rng, n))


def profile_set(reports):
    """The set of profiles behind a report list (order-insensitive compare)."""
    return {r.profile for r in reports}


def reference_block_game(inner, outer):
    """Reference block-diagonal composition on NumPy object arrays of
    Fractions, as families.block_game built it before it composed the
    components' integer forms: inner's a and b top left, outer's bottom
    right, zeros elsewhere, made a game by BimatrixGame(a, b)."""
    d1, d = inner.m, inner.m + outer.m

    def diag(top, bottom):
        mat = np.full((d, d), Fraction(0), dtype=object)
        mat[:d1, :d1] = top
        mat[d1:, d1:] = bottom
        return mat

    return BimatrixGame(diag(inner.a, outer.a), diag(inner.b, outer.b))


def reference_game_text(game):
    """Reference game file writer: str of each Fraction of a, then of b,
    as gamefiles.format_game_text wrote it before it read integer rows."""
    lines = [f"{game.m} {game.n}"]
    for mat in (game.a, game.b):
        for i in range(game.m):
            lines.append(" ".join(str(mat[i, j]) for j in range(game.n)))
    return "\n".join(lines) + "\n"


def reference_profile_text(profile):
    """Reference profile writer: str of each Fraction of x and of y."""
    return (",".join(str(e) for e in profile.x) + ";"
            + ",".join(str(e) for e in profile.y))


def _vectors(profile):
    """A profile's x and y as NumPy object arrays of Fractions."""
    return (np.array(profile.x, dtype=object),
            np.array(profile.y, dtype=object))


def reference_evaluate(game, profile):
    """Reference profile evaluation on NumPy object arrays of Fractions.

    (loss, x a y, x b y, max_i (a y)_i, max_j (x b)_j) from one a y and one
    x b, as games._evaluate computed it before it moved to integer rows;
    games._evaluate must give exactly this tuple.
    """
    x, y = _vectors(profile)
    ay, xb = game.a @ y, x @ game.b
    best1, best2, p1, p2 = max(ay), max(xb), x @ ay, xb @ y
    return best1 + best2 - p1 - p2, p1, p2, best1, best2


def reference_check_deviation_bound(game, profile, eps):
    """Reference pure-deviation check on NumPy object arrays of Fractions,
    as games.check_deviation_bound computed it before it moved to lists."""
    bound = _eps_threshold(game, eps)
    x, y = _vectors(profile)
    ay = game.a @ y
    xb = x @ game.b
    base = x @ game.c @ y
    for i in range(game.m):
        for j in range(game.n):
            if ay[i] + xb[j] - base > bound:
                return False
    return True


def reference_qp_objective(game, profile):
    """Reference QP objective s - z Q z on a NumPy block matrix, as
    games.qp_objective computed it before it moved to lists."""
    x, y = _vectors(profile)
    m, n = game.shape
    half = game.c * Fraction(1, 2)
    q = np.full((m + n, m + n), Fraction(0), dtype=object)
    q[:m, m:] = half
    q[m:, :m] = half.T
    z = np.concatenate([x, y])
    s = sum(best_response_values(game, profile), Fraction(0))
    return Fraction(s - z @ q @ z)


def reference_additive_to_zero_sum(game, u, v):
    """Reference zero-sum rewrite with np.outer, as
    families.additive_to_zero_sum computed it before it moved to lists."""
    u = np.array([as_fraction(e) for e in u], dtype=object)
    v = np.array([as_fraction(e) for e in v], dtype=object)
    if len(u) != game.m or len(v) != game.n:
        raise ValueError("u/v lengths must match the game dimensions")
    for i in range(game.m):
        for j in range(game.n):
            if game.c[i, j] != u[i] + v[j]:
                raise ValueError("payoff sum is not u_i + v_j at every entry")
    a2 = game.a - np.outer(np.full(game.m, Fraction(1), dtype=object), v)
    b2 = game.b - np.outer(u, np.full(game.n, Fraction(1), dtype=object))
    return BimatrixGame(a2, b2)


def reference_svd_truncate(matrix, k):
    """Reference rank-k truncation on a NumPy object array of Fractions, as
    approx.svd_truncate computed it before it read rows: the array itself
    when k is at least its rank, else the pairs of the float SVD of
    astype(float), rationalized factor by factor."""
    c = np.array(_fraction_rows(matrix), dtype=object)
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k >= matrix_rank(c):
        return c
    if k == 0:
        return RankFactorization(c.shape, ()).matrix()
    m, n = c.shape
    if max(abs(e) for e in c.flat) * m * n >= sys.float_info.max:
        raise ValueError(
            "payoff sum entries are too large for the float SVD of "
            "svd_truncate: the largest |entry| times m*n must stay below "
            f"{sys.float_info.max:.3g}"
        )
    u, s, vt = np.linalg.svd(c.astype(float))
    pairs = tuple(
        (tuple(Fraction(u[i, t] * s[t]).limit_denominator(SVD_MAX_DENOMINATOR)
               for i in range(m)),
         tuple(Fraction(vt[t, j]).limit_denominator(SVD_MAX_DENOMINATOR)
               for j in range(n)))
        for t in range(k)
    )
    return RankFactorization((m, n), pairs).matrix()


def reference_perturb_game(game, c_prime):
    """Reference perturbation on NumPy object arrays of Fractions, as
    approx.perturb_game computed it before it read rows: both payoff
    matrices shifted by half of c' - c."""
    cp = np.array(_fraction_rows(c_prime), dtype=object)
    if cp.shape != game.shape:
        raise ValueError("replacement matrix shape does not match the game")
    if game.norm_c == 0:
        raise ValueError("zero-sum game has no relative perturbation scale")
    delta = cp - game.c
    eps = Fraction(max(abs(e) for e in delta.flat), game.norm_c)
    if eps >= 1:
        raise ValueError("perturbation is as large as the payoff scale itself")
    half = delta * Fraction(1, 2)
    perturbed = BimatrixGame(game.a + half, game.b + half)
    return GamePerturbation(original=game, perturbed=perturbed, eps=eps)


def reference_polynomial_kernel_matrix(g, coeffs):
    """Reference kernel matrix p(g_i - g_j), filled cell by cell into a
    NumPy object array with p summed by powers, as
    families.polynomial_kernel_matrix built it before it built rows."""
    g = [as_fraction(e) for e in g]
    coeffs = [as_fraction(e) for e in coeffs]
    if not g:
        raise ValueError("grid g must be nonempty")
    if not coeffs:
        raise ValueError("need at least one coefficient")
    d = len(g)
    mat = np.empty((d, d), dtype=object)
    for i in range(d):
        for j in range(d):
            t = g[i] - g[j]
            acc = Fraction(0)
            power = Fraction(1)
            for c in coeffs:
                acc += c * power
                power *= t
            mat[i, j] = acc
    return mat


def connected_component_count(game, eqset):
    """Number of connected components spanned by an enumerated set.

    An independent audit: two equilibria are linked when both cross
    pairings pass the exact loss check, which takes O(E^2) checks. It
    reads the set's profiles only, not its components, and must count as
    many components as enumerate_equilibria's partition holds.
    """
    profiles = eqset.profiles
    edges = [
        (i, j) for i, j in combinations(range(len(profiles)), 2)
        if is_exact_equilibrium(game, MixedProfile(profiles[i].x, profiles[j].y))
        and is_exact_equilibrium(game, MixedProfile(profiles[j].x, profiles[i].y))
    ]
    return len(_component_partition(len(profiles), edges))


def ineqs(poly):
    """The inequality rows ineqs z <= 0 of a best-response polyhedron, as
    a NumPy object array of Fractions built from its payoff rows: the
    nonnegativity rows -z_i <= 0 and the best-response rows
    payoff[r] . z / den - payoff_coordinate <= 0, in two blocks in label
    order: side P puts its nonnegativity block first, side Q its
    best-response block. Row r carries label poly.labels[r]."""
    slen, den = poly.strategy_len, poly.den
    zero, one = Fraction(0), Fraction(1)
    nonneg = [[-one if c == i else zero for c in range(slen + 1)]
              for i in range(slen)]
    br = [[Fraction(e, den) for e in row] + [-one] for row in poly.payoff]
    return np.array(nonneg + br if poly.side == "P" else br + nonneg,
                    dtype=object)


def brute_force_bases(poly):
    """Reference basis enumeration: solve every basis from scratch.

    Every choice of strategy_len inequality rows is solved as equalities
    together with the normalization row. Yields (rows, point, values) for
    each choice whose system is nonsingular and whose point satisfies every
    inequality, values being the inequality rows at the point.
    """
    rows = ineqs(poly)
    k = rows.shape[0]
    d = poly.dim
    norm_row = [Fraction(1)] * poly.strategy_len + [Fraction(0)]
    for subset in combinations(range(k), d - 1):
        a = [norm_row] + [list(rows[r]) for r in subset]
        b = [Fraction(1)] + [Fraction(0)] * (d - 1)
        point = solve_linear_system(a, b)
        if point is None:
            continue
        values = rows @ np.array(point, dtype=object)
        if all(val <= 0 for val in values):
            yield subset, point, values


def brute_force_vertices(poly):
    """Reference vertex enumeration: the points of brute_force_bases.

    Every vertex of a pointed polyhedron is hit by at least one feasible
    basis. Same output contract as enumerate_vertices: deduplicated, sorted
    by point, with the full binding label set.
    """
    seen = {}
    for _, point, values in brute_force_bases(poly):
        if point not in seen:
            binding = frozenset(
                poly.labels[r] for r, val in enumerate(values) if val == 0
            )
            seen[point] = PolyhedronVertex(point=point, binding=binding)
    return tuple(seen[p] for p in sorted(seen))


def two_sided_vertex_lists(game):
    """The P and Q vertex lists, each walked by enumerate_vertices on its
    own polyhedron: the reference for polyhedra._vertex_lists, which gives
    P's list only for a symmetric game."""
    return tuple(enumerate_vertices(poly) for poly in build_polyhedra(game))


def relabelled_q_list(p_vertices, m):
    """Q's vertex list of a symmetric game (b = a^T), read off P's list of
    m-strategy vertices: Q's row r is P's row (r + m) mod 2m, so each
    vertex keeps P's int pairs and has the two m-bit halves of its tight
    mask swapped. enumerate_equilibria pairs a symmetric game's P
    vertices with this list's masks; it must equal the walked Q list."""
    low = (1 << m) - 1
    return tuple(PolyhedronVertex._walked(v.coords,
                                          v.tight >> m | (v.tight & low) << m)
                 for v in p_vertices)


def two_sided_nondegenerate(game):
    """is_nondegenerate on both walked sides: no vertex binds more labels
    than its polyhedron's strategy_len."""
    return all(vertex.tight.bit_count() == poly.strategy_len
               for poly in build_polyhedra(game)
               for vertex in enumerate_vertices(poly))


def reference_cover_pairs(game):
    """Reference vertex pairing: test every (P vertex, Q vertex) pair.

    A pair is an equilibrium when the Q vertex binds every label 1..m+n the
    P vertex leaves unbound. Returns the (x, y) strategy pairs in P order,
    then Q order, the order enumerate_equilibria must report them in.
    """
    p, q = two_sided_vertex_lists(game)
    full = frozenset(range(1, game.m + game.n + 1))
    return [(vp.strategy, vq.strategy) for vp in p for vq in q
            if full - vp.binding <= vq.binding]


def reference_equilibria(game):
    """Reference equilibrium set: the frozenset cover test on every vertex
    pair, with each profile built from the vertices' Fraction strategies.

    Both polyhedra are walked (two_sided_vertex_lists). Returns (reports,
    components) as enumerate_equilibria must give them: reports in P
    order, then Q order, each made by make_report on MixedProfile(x, y);
    components as sorted index tuples, sorted, two equilibria linked when
    they share a P or a Q vertex.
    """
    p, q = two_sided_vertex_lists(game)
    full = frozenset(range(1, game.m + game.n + 1))
    pairs = [(ip, iq) for ip, vp in enumerate(p) for iq, vq in enumerate(q)
             if full - vp.binding <= vq.binding]
    reports = [make_report(game, MixedProfile(tuple(p[ip].strategy),
                                              tuple(q[iq].strategy)))
               for ip, iq in pairs]
    component = list(range(len(pairs)))
    for i, (ip, iq) in enumerate(pairs):
        for j in range(i):
            if pairs[j][0] == ip or pairs[j][1] == iq:
                old, new = component[i], component[j]
                component = [new if c == old else c for c in component]
    groups = {}
    for i, c in enumerate(component):
        groups.setdefault(c, []).append(i)
    return reports, tuple(sorted(tuple(g) for g in groups.values()))


def reference_vertex_order(poly):
    """Reference vertex list: the walk's vertices rebuilt from Fractions and
    sorted by point as Fraction tuples, as enumerate_vertices sorted them
    before it compared int pairs. Each point is Fraction(n, d) of the
    vertex's coordinate pairs and each binding the labels r + 1 of the set
    bits r of its tight-row mask."""
    rebuilt = [
        PolyhedronVertex(
            point=tuple(Fraction(n, d) for n, d in v.coords),
            binding=frozenset(poly.labels[r] for r in range(len(poly.labels))
                              if v.tight >> r & 1))
        for v in enumerate_vertices(poly)
    ]
    return tuple(sorted(rebuilt, key=lambda v: v.point))


def reference_walk_start(poly):
    """Reference start tableau of the vertex walk, built by pivots in
    (strategy, payoff) space from the Fraction rows ineqs(poly) and then
    cut down to slack space; polyhedra._start_tableau must give the same
    rows.

    One integer row [G_r | e_r | 0] per Fraction inequality row of ineqs
    (linalg.int_row) and the normalization row [1..1 0 | 0 | 1]; a pivot
    brings each of the d coordinates in on the start rows (the
    nonnegativity rows of strategies 2.., the lowest-indexed best-response
    row tied at the largest payoff against strategy 1, and the
    normalization row); then the coordinate columns are dropped. Returns
    (rows, basic) in polyhedra._start_tableau's layout: the basic-slack rows
    in row order, then the payoff coordinate's row, and the rows whose
    slacks are basic.
    """
    fractions = ineqs(poly)
    k, d = fractions.shape
    rows = []
    for r in range(k):
        row = int_row(list(fractions[r]))
        den = row.pop()
        row += [0] * (k + 1) + [den]
        row[d + r] = den
        rows.append(row)
    rows.append([1] * (d - 1) + [0] * (k + 1) + [1, 1])
    nonneg = [r for r, lab in enumerate(poly.labels) if lab in poly.nonneg_labels]
    br = [r for r, lab in enumerate(poly.labels) if lab in poly.br_labels]
    # max keeps the first of the rows tied at the largest column-0 entry
    free = nonneg[1:] + [max(br, key=lambda r: fractions[r, 0])] + [k]
    coord_rows = []
    for c in range(d):
        r = next(r for r in free if rows[r][c] != 0)
        full_pivot(rows, r, c)
        free.remove(r)
        coord_rows.append(r)
    rows = [reduced(row[d:]) for row in rows]
    basic = [r for r in range(k) if r not in coord_rows]
    return [rows[r] for r in basic] + [rows[coord_rows[-1]]], basic


def full_pivot(rows, r, col):
    """Reference Gauss-Jordan step on full-tableau integer rows, in place:
    the kernel as it was before it moved to dictionary rows.

    A row is a list of Python ints, the numerators and then one positive
    row denominator, divided by its gcd, with a column for every variable,
    basic or not. Row r is scaled so its col entry is 1, then col is
    cleared from every other row; changed rows are replaced by new lists.
    linalg.pivot on the dictionary rows must leave these rows restricted
    to the nonbasic columns (dictionary_rows), integer for integer.
    """
    prow = rows[r]
    if prow[col] != prow[-1]:
        sign = 1 if prow[col] > 0 else -1
        prow = [sign * e for e in prow[:-1]]
        prow.append(prow[col])
        rows[r] = prow = reduced(prow)
    p = prow[col]
    support = [(j, b) for j, b in enumerate(prow[:-1]) if b]
    for i, row in enumerate(rows):
        if i != r:
            f = row[col]
            if f:
                g = gcd(p, f)
                q, s = p // g, f // g
                row = [q * e for e in row] if q != 1 else row[:]
                for j, b in support:
                    row[j] -= s * b
                rows[i] = reduced(row)


def full_rows(rows, basis, nonbasic):
    """The full-tableau integer rows of dictionary rows: constraint row i
    has its entries on the nonbasic columns, its denominator on basis[i]'s
    column and 0 on the other basic ones; a row past the constraint rows
    (a cost row) is 0 on every basic column."""
    width = len(basis) + len(nonbasic)
    out = []
    for i, row in enumerate(rows):
        full = [0] * width + row[-2:]
        for v, e in zip(nonbasic, row):
            full[v] = e
        if i < len(basis):
            full[basis[i]] = row[-1]
        out.append(full)
    return out


def dictionary_rows(rows, nonbasic):
    """Full-tableau rows restricted to the nonbasic columns, in slot
    order, then the right-hand side and the denominator; not reduced, so
    comparing with linalg.pivot's rows also checks that the dropped basic
    columns left each row's gcd as it was."""
    return [[row[v] for v in nonbasic] + row[-2:] for row in rows]


def dense_pivot(rows, r, col):
    """Reference exchange step in Fractions: the full-width update, on new
    lists.

    Row r is divided by its col entry p and every other row has that
    multiple of it subtracted on every column, zero or not. Column col,
    the entering variable's, then holds the leaving variable's column: 1/p
    on row r and -f/p on a row whose col entry was f. linalg.pivot must
    give exactly these rows.
    """
    p = rows[r][col]
    prow = [e / p for e in rows[r]]
    prow[col] = 1 / p
    out = []
    for i, row in enumerate(rows):
        if i == r:
            out.append(prow)
        else:
            f = row[col]
            new = [a - f * b for a, b in zip(row, prow)]
            new[col] = -f / p
            out.append(new)
    return out


def reference_tableau(lp):
    """Reference phase-1 tableau of an LP, rebuilt from Fractions.

    The standard-form rewrite as one pass over the LinearProgram: each
    variable becomes const + a signed sum of nonnegative columns, each row
    gets its slack and its right-hand side minus the constants' shift, a
    row with a negative right-hand side is negated, a +1 slack starts basic
    and every other row gets an artificial column, and each full row
    becomes an integer row only at the end. Returns (rows, basis,
    nonbasic, number of artificials), the full rows restricted to the
    nonbasic columns in index order (dictionary_rows), or None when an
    upper bound lies below its lower bound. lp.StandardForm._tableau must
    give exactly these.
    """
    terms, bound_rows = [], []
    nstd = 0
    for lo, up in zip(lp.lower, lp.upper):
        if lo is not None:
            if up is not None:
                if up < lo:
                    return None
                bound_rows.append((nstd, up - lo))
            terms.append(((nstd, 1),))
            nstd += 1
        elif up is not None:
            terms.append(((nstd, -1),))
            nstd += 1
        else:
            terms.append(((nstd, 1), (nstd + 1, -1)))
            nstd += 2
    raw = []
    for row, sense, b in zip(lp.lhs, lp.senses, reference_shifted_rhs(lp)):
        coeffs = [Fraction(0)] * nstd
        for a, ts in zip(row, terms):
            for t, sign in ts:
                coeffs[t] += sign * a
        raw.append((coeffs, sense, b))
    for t, ub in bound_rows:
        coeffs = [Fraction(0)] * nstd
        coeffs[t] = Fraction(1)
        raw.append((coeffs, "<=", ub))
    nslack = sum(1 for _, sense, _ in raw if sense != "=")
    ncols = nstd + nslack
    rows, basis, k = [], [], 0
    for coeffs, sense, b in raw:
        row = coeffs + [Fraction(0)] * nslack + [b]
        slack = None
        if sense != "=":
            slack = nstd + k
            row[slack] = Fraction(1 if sense == "<=" else -1)
            k += 1
        if b < 0:
            row = [-e for e in row]
        rows.append(row)
        basis.append(slack if slack is not None and row[slack] > 0 else None)
    nart = basis.count(None)
    arts = iter(range(ncols, ncols + nart))
    basis = [next(arts) if col is None else col for col in basis]
    out = []
    for row, col in zip(rows, basis):
        ext = [Fraction(int(col == c)) for c in range(ncols, ncols + nart)]
        out.append(int_row(row[:-1] + ext + [row[-1]]))
    nonbasic = [c for c in range(ncols + nart) if c not in basis]
    return dictionary_rows(out, nonbasic), basis, nonbasic, nart


def reference_shifted_rhs(lp):
    """The right-hand sides of an LP's rows less the constants' shift, as
    reference_tableau rewrites them: each variable is its lower bound, else
    its upper bound, else 0, plus nonnegative columns. The tableau negates
    exactly the rows whose shifted right-hand side is negative."""
    const = [lo if lo is not None else up if up is not None else Fraction(0)
             for lo, up in zip(lp.lower, lp.upper)]
    return [b - sum((a * c for a, c in zip(row, const)), Fraction(0))
            for row, b in zip(lp.lhs, lp.rhs)]


def reference_price_out(tableau, zrow, basis):
    """Reference pricing on a full tableau: append the integer cost row
    zrow and pivot on every basic column, whether its cost entry is zero
    or not. Restricted to the nonbasic columns (dictionary_rows), these
    are the rows lp._price_out must leave."""
    tableau.append(zrow)
    for i, b in enumerate(basis):
        full_pivot(tableau, i, b)


def reference_grid_cells(game, eps, scheme, decomp=None):
    """Reference cell LP inputs of a grid scheme, in Fractions.

    One (rhs, objective) pair per cell, in cell order, as approx built
    them before its cells moved to integer rows: rhs over the LP's rows
    (best-response rows, the two sums, the absolute scheme's cap, then lo
    and hi of each interval) and objective over (x, y, s1, s2), the
    absolute scheme's bilinear term linearized at the cell's midpoints.
    """
    m, n = game.shape
    zero, one = Fraction(0), Fraction(1)
    rhs = [zero] * (m + n) + [one, one]
    if scheme == "abs":
        factors = game.factorization.pairs
        k = len(factors)
        rhs.append(game.norm_c)
        axes = [[(Fraction(lo, d), Fraction(hi, d)) for lo, hi, d in
                 _interval_axis(min(u), max(u),
                                eps * game.norm_c / (2 * k * max(map(abs, v))))]
                for u, v in factors]
    else:
        factors = (decomp or game.factorization).pairs
        axes = [axis for u, v in factors
                for axis in (_geometric_axis(u, eps)[0],
                             _geometric_axis(v, eps)[0])]
    cells = []
    for cell in product(*axes):
        y = [zero] * n
        if scheme == "abs":
            centers = [(lo + hi) / 2 for lo, hi in cell]
            y = [sum(center * v[j] for center, (_, v) in zip(centers, factors))
                 for j in range(n)]
        cells.append((rhs + [e for interval in cell for e in interval],
                      [zero] * m + [-c for c in y] + [one, one]))
    return cells


def reference_grid_lp(game, scheme, decomp=None):
    """Reference LP of a grid scheme, in Fractions, as approx built it
    before its rows moved to integer rows: over (x, y, s1, s2), the
    best-response rows, the two sums, the absolute scheme's cap
    s1 + s2 <= |a+b|, then a >= and a <= row for each factor row, the
    absolute scheme's u_t . x and the relative scheme's u_t . x and
    v_t . y. The factor rows' right-hand sides and the objective are 0
    placeholders: reference_grid_cells gives each cell's. int_row of each
    row is the grid's StandardForm input row.
    """
    m, n = game.shape
    zero, one = Fraction(0), Fraction(1)
    if scheme == "abs":
        factor_rows = [list(u) + [zero] * n for u, _ in game.factorization.pairs]
    else:
        factor_rows = [row for u, v in (decomp or game.factorization).pairs
                       for row in (list(u) + [zero] * n, [zero] * m + list(v))]
    rows = [[zero] * m + list(game.a[i]) + [-one, zero] for i in range(m)]
    rows += [list(game.b[:, j]) + [zero] * n + [zero, -one] for j in range(n)]
    rows += [[one] * m + [zero] * n + [zero, zero],
             [zero] * m + [one] * n + [zero, zero]]
    senses = ["<="] * (m + n) + ["=", "="]
    rhs = [zero] * (m + n) + [one, one]
    if scheme == "abs":
        rows.append([zero] * (m + n) + [one, one])
        senses.append("<=")
        rhs.append(game.norm_c)
    for row in factor_rows:
        row = row + [zero, zero]
        rows += [row, row]
        senses += [">=", "<="]
    return linear_program([zero] * (m + n + 2), rows, senses,
                          rhs + [zero] * (2 * len(factor_rows)),
                          lower=[zero] * (m + n) + [None, None])


def reference_cost_row(form, objective):
    """Reference phase-2 cost row of a StandardForm: the Fraction costs of
    the standard columns, each variable's cost, negated on the second
    column of a free variable, made an integer row with a zero right-hand
    side. lp.StandardForm.solve_rows must price out exactly this row."""
    cost = []
    for c, free in zip(objective, form.free):
        cost += [c, -c] if free else [c]
    cost += [Fraction(0)] * (form.ncols - len(cost))
    return int_row(cost + [Fraction(0)])


def drawn_games(st, entries):
    """A hypothesis strategy for games of 1..4 by 1..4 strategies with
    payoff entries drawn from the strategy entries."""

    @st.composite
    def games(draw):
        m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        grid = st.lists(st.lists(entries, min_size=n, max_size=n),
                        min_size=m, max_size=m)
        return BimatrixGame(draw(grid), draw(grid))

    return games()


def oracle_game_strategies(st):
    """The two game draws the Fraction oracles run on: rational entries
    p/q with q up to 7, which reach the lcm scaling of the integer rows,
    and entries 0..2, whose ties make degenerate vertices frequent."""
    return {"rational": drawn_games(st, st.builds(Fraction, st.integers(-3, 3),
                                                  st.integers(1, 7))),
            "degenerate": drawn_games(st, st.integers(0, 2))}
