"""Shared generators for the seeded randomized tests, and reference oracles."""

from fractions import Fraction
from itertools import combinations

from rankgames import BimatrixGame, MixedProfile
from rankgames.linalg import fraction_vector, solve_linear_system
from rankgames.polyhedra import PolyhedronVertex


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


def brute_force_vertices(poly):
    """Reference vertex enumeration: solve every basis from scratch.

    Every choice of strategy_len inequality rows is solved as equalities
    together with the normalization row; nonsingular systems give candidate
    points, kept when they satisfy every inequality. Every vertex of a
    pointed polyhedron is hit by at least one nonsingular choice. Same
    output contract as enumerate_vertices: deduplicated, sorted by point,
    with the full binding label set.
    """
    k = poly.ineqs.shape[0]
    d = poly.dim
    norm_row = [Fraction(1)] * poly.strategy_len + [Fraction(0)]
    seen = {}
    for subset in combinations(range(k), d - 1):
        a = [norm_row] + [list(poly.ineqs[r]) for r in subset]
        b = [Fraction(1)] + [Fraction(0)] * (d - 1)
        point = solve_linear_system(a, b)
        if point is None or point in seen:
            continue
        values = poly.ineqs @ fraction_vector(point)
        if any(val > 0 for val in values):
            continue
        binding = frozenset(
            poly.labels[r] for r, val in enumerate(values) if val == 0
        )
        seen[point] = PolyhedronVertex(point=point, binding=binding)
    return tuple(seen[p] for p in sorted(seen))


def dense_pivot(rows, r, col):
    """Reference Gauss-Jordan step: the full-width update, on new lists.

    Row r is divided by its col entry and every other row has that multiple
    of it subtracted on every column, zero or not. linalg.pivot must give
    exactly these rows.
    """
    p = rows[r][col]
    prow = [e / p for e in rows[r]]
    return [prow if i == r else [a - row[col] * b for a, b in zip(row, prow)]
            for i, row in enumerate(rows)]
