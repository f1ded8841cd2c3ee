"""Game constructors: formulas, ranks, and structure-preserving rewrites."""

import random
from fractions import Fraction

import numpy as np
import pytest

from rankgames import (
    BimatrixGame,
    additive_to_zero_sum,
    block_game,
    enumerate_by_supports,
    find_additive_decomposition,
    identity_game,
    matrix_rank,
    polynomial_kernel_game,
    polynomial_kernel_matrix,
    rank1_family,
    squared_difference_family,
)

from helpers import (
    random_matrix,
    reference_additive_to_zero_sum,
    reference_block_game,
    reference_polynomial_kernel_matrix,
)


def test_rank1_family_formula():
    g = rank1_family(3)
    for i in range(1, 4):
        for j in range(1, 4):
            assert g.a[i - 1, j - 1] == 2 * i * j - i * i + j * j
            assert g.c[i - 1, j - 1] == 4 * i * j
    assert np.array_equal(g.b, g.a.T)
    assert g.rank_c == 1
    assert g.norm_c == 36
    with pytest.raises(ValueError):
        rank1_family(0)


def test_squared_difference_family_formula_and_rank():
    g = squared_difference_family(4)
    for i in range(4):
        for j in range(4):
            assert g.a[i, j] == -((i - j) ** 2)
    assert np.array_equal(g.a, g.b)
    assert squared_difference_family(2).rank_c == 2
    for d in (3, 4, 5):
        assert squared_difference_family(d).rank_c == 3


def test_squared_difference_same_equilibria_as_rank1():
    # payoff columns differ from rank1's only by column-constant shifts
    for d in (2, 3, 4):
        s1 = set(enumerate_by_supports(rank1_family(d)))
        s2 = set(enumerate_by_supports(squared_difference_family(d)))
        assert s1 == s2
        assert len(s1) == 2 * d - 1


def test_identity_game():
    g = identity_game(3)
    assert g.rank_c == 3
    assert g.norm_c == 2
    assert g.a[0, 0] == 1 and g.a[0, 1] == 0
    assert np.array_equal(g.a, g.b)


def test_block_game_layout_and_rank():
    g = block_game(identity_game(2), rank1_family(2))
    assert g.shape == (4, 4)
    assert np.array_equal(g.a[:2, :2], identity_game(2).a)
    assert np.array_equal(g.a[2:, 2:], rank1_family(2).a)
    assert all(e == 0 for e in g.a[:2, 2:].flat)
    assert all(e == 0 for e in g.b[2:, :2].flat)
    assert g.rank_c == identity_game(2).rank_c + rank1_family(2).rank_c
    with pytest.raises(ValueError):
        block_game(BimatrixGame([[1, 2]], [[0, 0]]), identity_game(2))


@pytest.mark.parametrize("d", range(1, 8))
def test_integer_families_match_the_fraction_builder(d):
    """rank1_family and identity_game write the integer form that
    BimatrixGame writes from their Fraction payoffs."""
    a = [[Fraction(2 * i * j - i * i + j * j) for j in range(1, d + 1)]
         for i in range(1, d + 1)]
    eye = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for got, want in ((rank1_family(d), BimatrixGame(a, np.array(a).T)),
                      (identity_game(d), BimatrixGame(eye, eye))):
        assert got._int_form == want._int_form and got.shape == want.shape
        assert np.array_equal(got.a, want.a) and np.array_equal(got.b, want.b)


def test_block_game_matches_the_fraction_builder():
    """block_game, which composes its components' integer forms, gives the
    game of the NumPy Fraction builder (helpers.reference_block_game):
    the same integer form, a and b, on drawn square components with
    fractional entries and on family games, nested blocks included."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entries = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
    families = {"rank1": rank1_family, "identity": identity_game,
                "sqdiff": squared_difference_family}

    def square(d):
        matrix = st.lists(st.lists(entries, min_size=d, max_size=d),
                          min_size=d, max_size=d)
        return st.tuples(matrix, matrix)

    leaves = st.one_of(
        st.integers(1, 3).flatmap(square),
        st.tuples(st.sampled_from(sorted(families)), st.integers(1, 3)))
    trees = st.recursive(
        leaves, lambda kids: st.tuples(st.just("block"), kids, kids),
        max_leaves=4)

    def build(spec, compose):
        if isinstance(spec[0], list):
            return BimatrixGame(*spec)
        if spec[0] == "block":
            return compose(build(spec[1], compose), build(spec[2], compose))
        return families[spec[0]](spec[1])

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.tuples(st.just("block"), trees, trees))
    def check(spec):
        got = build(spec, block_game)
        want = build(spec, reference_block_game)
        assert got._int_form == want._int_form and got == want
        assert got.shape == want.shape
        for name in ("a", "b"):
            view, ref = getattr(got, name), getattr(want, name)
            assert np.array_equal(view, ref) and view.shape == ref.shape
            assert all(type(e) is Fraction for e in view.flat)

    check()


def test_polynomial_kernel_matches_squared_difference():
    for d in (2, 3, 5):
        mat = polynomial_kernel_matrix(range(1, d + 1), (0, 0, -1))
        assert np.array_equal(mat, squared_difference_family(d).a)
    game = polynomial_kernel_game(range(1, 4), (0, 0, -1))
    assert game == squared_difference_family(3)


def test_polynomial_kernel_rank_bound():
    # p(g_i - g_j) of degree p has rank at most (deg+1)(deg+2)/2
    rng = random.Random(31415)
    for _ in range(20):
        d = rng.randint(2, 6)
        deg = rng.randint(0, 3)
        grid = [Fraction(rng.randint(-6, 6)) for _ in range(d)]
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(deg)]
        coeffs.append(Fraction(rng.choice([-2, -1, 1, 2])))
        mat = polynomial_kernel_matrix(grid, coeffs)
        assert matrix_rank(mat) <= (deg + 1) * (deg + 2) // 2
    with pytest.raises(ValueError):
        polynomial_kernel_matrix([], [1])
    with pytest.raises(ValueError):
        polynomial_kernel_matrix([1, 2], [])


def test_additive_to_zero_sum_preserves_equilibria():
    rng = random.Random(2718)
    for _ in range(10):
        m, n = rng.randint(2, 3), rng.randint(2, 3)
        u = [rng.randint(-4, 4) for _ in range(m)]
        v = [rng.randint(-4, 4) for _ in range(n)]
        a = random_matrix(rng, m, n, -6, 6)
        b = [[u[i] + v[j] - a[i][j] for j in range(n)] for i in range(m)]
        g = BimatrixGame(a, b)
        z = additive_to_zero_sum(g, u, v)
        assert z.norm_c == 0
        assert set(enumerate_by_supports(g)) == set(enumerate_by_supports(z))


def test_additive_to_zero_sum_rejects_bad_split():
    g = rank1_family(2)  # c = 4ij is not additively separable
    with pytest.raises(ValueError):
        additive_to_zero_sum(g, [4, 8], [0, 8])
    with pytest.raises(ValueError):
        additive_to_zero_sum(g, [4], [0, 8])


def test_list_constructors_match_the_numpy_references():
    """additive_to_zero_sum and the polynomial kernel, built on lists, give
    exactly what their NumPy object-array bodies gave, on rectangular
    games and grids of entries p/q: equal games, equal refusals, and a
    writeable object array of Fractions of the same shape and entries."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entries = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))

    @st.composite
    def splits(draw):
        m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        u = draw(st.lists(entries, min_size=m, max_size=m))
        v = draw(st.lists(entries, min_size=n, max_size=n))
        a = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                          min_size=m, max_size=m))
        b = [[u[i] + v[j] - a[i][j] for j in range(n)] for i in range(m)]
        if draw(st.booleans()):  # break the split at one entry
            i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))
            b[i][j] += draw(st.sampled_from([Fraction(-1, 2), Fraction(3)]))
        return BimatrixGame(a, b), u, v

    def outcome(call, *args):
        try:
            return call(*args)
        except ValueError as exc:
            return str(exc)

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(splits(), st.lists(entries, min_size=1, max_size=5),
                      st.lists(entries, min_size=1, max_size=4))
    def check(split, grid, coeffs):
        game, u, v = split
        assert outcome(additive_to_zero_sum, game, u, v) == \
            outcome(reference_additive_to_zero_sum, game, u, v)
        assert outcome(additive_to_zero_sum, game, u[1:], v) == \
            outcome(reference_additive_to_zero_sum, game, u[1:], v)
        got = polynomial_kernel_matrix(grid, coeffs)
        want = reference_polynomial_kernel_matrix(grid, coeffs)
        assert (got.dtype, got.shape, got.flags.writeable) == \
            (want.dtype, want.shape, True)
        assert got.tolist() == want.tolist()
        assert all(type(e) is Fraction for e in got.flat)
        assert polynomial_kernel_game(grid, coeffs) == BimatrixGame(want, want)

    check()


def test_find_additive_decomposition():
    rng = random.Random(161803)
    for _ in range(10):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        u = [Fraction(rng.randint(-5, 5)) for _ in range(m)]
        v = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
        mat = [[u[i] + v[j] for j in range(n)] for i in range(m)]
        got = find_additive_decomposition(mat)
        assert got is not None
        gu, gv = got
        assert gu[0] == 0  # normalization
        assert [[gu[i] + gv[j] for j in range(n)] for i in range(m)] == mat
    assert find_additive_decomposition([[4, 8], [8, 16]]) is None


@pytest.mark.parametrize("family", [identity_game, squared_difference_family])
def test_family_needs_positive_d(family):
    with pytest.raises(ValueError, match="d must be positive"):
        family(0)
