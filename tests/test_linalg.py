"""Exact-arithmetic building blocks: conversion, rank, solving, factoring."""

import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest

from rankgames import (
    BimatrixGame,
    RankFactorization,
    approx_absolute,
    approx_relative,
    as_fraction,
    block_game,
    enumerate_equilibria,
    identity_game,
    matrix_rank,
    perturb_game,
    polynomial_kernel_matrix,
    rank1_family,
    rank_factorize,
    solve_linear_system,
    squared_difference_family,
    svd_truncate,
)
from rankgames import linalg, lp, polyhedra
from rankgames.linalg import int_row, pivot

from helpers import (
    dense_pivot,
    dictionary_rows,
    full_pivot,
    random_matrix,
)


def test_as_fraction_accepts_exact_inputs():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction("2/7") == Fraction(2, 7)
    assert as_fraction(Fraction(-5, 3)) == Fraction(-5, 3)
    assert as_fraction(np.int64(4)) == Fraction(4)


def test_as_fraction_zero_denominator_is_a_value_error():
    with pytest.raises(ValueError, match="zero denominator"):
        as_fraction("1/0")


def test_as_fraction_rejects_floats():
    with pytest.raises(TypeError):
        as_fraction(0.5)


def test_fraction_matrix_shape_checks():
    """A matrix with no row, or rows of unequal lengths, is refused by
    every reader of matrix input (linalg._fraction_rows)."""
    for bad, message in (([], "at least one row"),
                         ([[1, 2], [3]], "rows have unequal lengths")):
        for read in (linalg._fraction_rows, matrix_rank, rank_factorize,
                     lambda mat: svd_truncate(mat, 1),
                     lambda mat: perturb_game(rank1_family(2), mat),
                     lambda mat: BimatrixGame(mat, mat)):
            with pytest.raises(ValueError, match=message):
                read(bad)


def test_array_builders_are_gone():
    """An object array is only ever an output: the builders
    fraction_matrix and fraction_vector and the any-depth max_abs_entry
    are gone, so importing one raises ImportError."""
    for name in ("fraction_matrix", "fraction_vector", "max_abs_entry"):
        for module in ("rankgames", "rankgames.linalg"):
            with pytest.raises(ImportError):
                exec(f"from {module} import {name}", {})


def test_array_input_reads_as_its_rows():
    """A 2-d array is read row by row like nested lists: NumPy integers and
    Fractions are taken, floats are refused."""
    rows = [[1, -2, 3], [0, 4, -5]]
    want = BimatrixGame(rows, rows)
    assert BimatrixGame(np.array(rows, dtype=np.int64),
                        np.array(rows, dtype=np.int64)) == want
    arr = np.array([[Fraction(e) for e in row] for row in rows], dtype=object)
    assert BimatrixGame(arr, arr) == want
    assert linalg._fraction_rows(np.array(rows, dtype=np.int32)) == \
        arr.tolist()
    with pytest.raises(TypeError, match="got float"):
        BimatrixGame(np.array(rows, dtype=float), rows)
    with pytest.raises(TypeError):
        matrix_rank(np.array([[0.5]]))


def test_returned_arrays_are_object_arrays_writeable_unless_views():
    """Every matrix the package returns is an object array of Fractions;
    a game's a, b and c are read-only views, and the rest are the
    caller's to write."""
    game = rank1_family(3)
    views = [game.a, game.b, game.c]
    # svd_truncate's exact shortcut (rank <= k) and its float SVD
    owned = [game.factorization.matrix(),
             polynomial_kernel_matrix([1, 2], [0, 1]),
             svd_truncate([[1, 2], [2, 4]], 1),
             svd_truncate([[1, 2], [3, 4]], 1)]
    for arr, writeable in ([(v, False) for v in views]
                           + [(o, True) for o in owned]):
        assert arr.dtype == object
        assert arr.flags.writeable is writeable
        assert all(type(e) is Fraction for e in arr.flat)


def test_matrix_rank_known_values():
    assert matrix_rank([[0, 0], [0, 0]]) == 0
    assert matrix_rank([[4, 8], [8, 16]]) == 1
    assert matrix_rank([[1, 0], [0, 1]]) == 2
    # -2(i-j)^2 on a 3-grid: 3 independent separable terms
    m = [[0, -2, -8], [-2, 0, -2], [-8, -2, 0]]
    assert matrix_rank(m) == 3


def test_matrix_rank_matches_float_rank_on_random_int_matrices():
    rng = random.Random(20260819)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        ints = random_matrix(rng, m, n, -4, 4)
        mat = np.array(ints, dtype=object)
        assert matrix_rank(mat) == np.linalg.matrix_rank(mat.astype(float))
        # a list of int rows is read as an array of Fractions is; its
        # integer rows over denominator 1 are passed as rows
        assert matrix_rank(ints) == matrix_rank(mat)
        assert matrix_rank(rows=[[*r, 1] for r in ints]) == matrix_rank(mat)
    assert matrix_rank([[1, "1/2"], [2, 1]]) == 1
    with pytest.raises(ValueError, match="rows have unequal lengths"):
        matrix_rank([[1, 2], [3]])
    with pytest.raises(ValueError, match="at least one row"):
        matrix_rank([[]])


def test_solve_linear_system_exact():
    a = np.array([[2, 1], [1, 3]], dtype=object)
    b = np.array([5, 10], dtype=object)
    x = solve_linear_system(a, b)
    assert list(x) == [Fraction(1), Fraction(3)]
    assert all((a @ x) == b)


def test_solve_linear_system_singular_returns_none():
    assert solve_linear_system([[1, 2], [2, 4]], [1, 1]) is None


def test_rank_factorize_reconstructs_and_counts_random():
    rng = random.Random(7)
    for _ in range(30):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        mat = random_matrix(rng, m, n, -5, 5)
        fact = rank_factorize(mat)
        assert fact.shape == (m, n)
        assert fact.rank == matrix_rank(mat) == len(fact.pairs)
        assert np.array_equal(fact.matrix(), mat)


def test_factorization_rows_match_the_outer_product_sum():
    """matrix() and the integer rows a passed decomposition is checked on
    are the sum of the pairs' outer products, here summed in Fractions."""
    rng = random.Random(27)
    for _ in range(300):
        m, n, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 3)
        pairs = tuple(
            tuple(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                        for _ in range(size)) for size in (m, n))
            for _ in range(k))
        want = [[sum((u[i] * v[j] for u, v in pairs), Fraction(0))
                 for j in range(n)] for i in range(m)]
        fact = RankFactorization((m, n), pairs)
        assert fact._int_rows() == [int_row(row) for row in want]
        got = fact.matrix()
        assert got.shape == (m, n) and got.tolist() == want
        assert all(type(e) is Fraction for e in got.flat)


def test_rank_factorize_sign_convention():
    # each u starts with a positive entry at its first nonzero position
    mat = [[0, -2, -8], [-2, 0, -2], [-8, -2, 0]]
    fact = rank_factorize(mat)
    for u, _ in fact.pairs:
        lead = next(e for e in u if e != 0)
        assert lead > 0
    assert np.array_equal(fact.matrix(), mat)


def test_rank_factorize_nonnegative_flag():
    pos = rank_factorize([[4, 8], [8, 16]])
    assert pos.nonnegative
    mixed = rank_factorize([[0, -1], [-1, 0]])
    assert not mixed.nonnegative


def test_rank_factorize_zero_matrix():
    fact = rank_factorize([[0, 0], [0, 0]])
    assert fact.rank == 0
    assert fact.pairs == ()
    assert fact.matrix().tolist() == [[0, 0], [0, 0]]


def test_rank_factorize_golden_pairs():
    # the canonical peel order fixes the grid axes of the approximation
    # schemes, so these exact pairs are pinned
    assert rank_factorize(rank1_family(3).c).pairs == (
        ((4, 8, 12), (1, 2, 3)),
    )
    assert rank_factorize(squared_difference_family(4).c).pairs == (
        ((0, 2, 8, 18), (-1, 0, -1, -4)),
        ((2, 0, 2, 8), (0, -1, -4, -9)),
        ((0, 0, 16, 48), (0, 0, 1, 3)),
    )
    block = block_game(identity_game(2), rank1_family(3))
    assert rank_factorize(block.c).pairs == (
        ((2, 0, 0, 0, 0), (1, 0, 0, 0, 0)),
        ((0, 2, 0, 0, 0), (0, 1, 0, 0, 0)),
        ((0, 0, 4, 8, 12), (0, 0, 1, 2, 3)),
    )


def test_exact_kernels_match_sympy_oracle():
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies

    entries = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-9, max_value=9, max_denominator=6),
    )

    def grids(m, n):
        return st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m
        )

    @st.composite
    def matrices(draw):
        m = draw(st.integers(1, 6))
        n = draw(st.one_of(st.just(m), st.integers(1, 6)))
        if draw(st.booleans()):
            return draw(grids(m, n))
        # a product through an inner dimension k is singular when k is small,
        # and the zero matrix when k is 0
        k = draw(st.integers(0, min(m, n)))
        left, right = draw(grids(m, k)), draw(grids(k, n))
        return [
            [sum((left[i][t] * right[t][j] for t in range(k)), Fraction(0))
             for j in range(n)]
            for i in range(m)
        ]

    def to_sympy(rows):
        return sympy.Matrix(
            [[sympy.Rational(e.numerator, e.denominator) for e in r] for r in rows]
        )

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(matrices(), st.lists(entries, min_size=6, max_size=6))
    def check(rows, rhs):
        mat = np.array(rows, dtype=object)
        rank = to_sympy(rows).rank()
        assert matrix_rank(mat) == rank
        fact = rank_factorize(mat)
        assert fact.rank == rank
        assert np.array_equal(fact.matrix(), mat)

        n = min(mat.shape)
        square, b = [r[:n] for r in rows[:n]], rhs[:n]
        x = solve_linear_system(square, b)
        oracle = to_sympy(square)
        if oracle.rank() < n:
            assert x is None
        else:
            expected = oracle.LUsolve(to_sympy([[e] for e in b]))
            assert x == tuple(Fraction(int(e.p), int(e.q)) for e in expected)

    check()


def _sparse_rows(st):
    """Rational row lists up to 6x8, mostly zeros, with one nonzero entry
    (i, j) drawn as the pivot."""
    entries = st.one_of(
        st.just(Fraction(0)),
        st.just(Fraction(1)),
        st.fractions(min_value=-9, max_value=9, max_denominator=6),
    )

    @st.composite
    def cases(draw):
        m, n = draw(st.integers(1, 6)), draw(st.integers(1, 8))
        rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                             min_size=m, max_size=m))
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))
        if rows[i][j] == 0:
            rows[i][j] = draw(entries.filter(bool))
        return rows, i, j

    return cases()


def _values(rows):
    """The Fraction entries of integer rows."""
    return [[Fraction(e, row[-1]) for e in row[:-1]] for row in rows]


def _assert_canonical(rows):
    for row in rows:
        assert all(type(e) is int for e in row)
        assert row[-1] > 0
        assert gcd(*row) == 1


def test_int_row_round_trip():
    big = Fraction(1, 10**6 - 1), Fraction(-7, 10**6 + 1)
    cases = [
        [Fraction(0)] * 4,
        [Fraction(-3), Fraction(0), Fraction(5, -4)],
        [*big, Fraction(0), Fraction(-(10**6 + 1), 10**6 - 1)],
        [Fraction(2, 6), Fraction(-4, 6), Fraction(6, 9)],
        [3, -4, 0],
    ]
    for entries in cases:
        row = int_row(entries)
        _assert_canonical([row])
        assert _values([row]) == [[Fraction(e) for e in entries]]
        assert row[-1] == lcm(*(Fraction(e).denominator for e in entries))
    assert int_row([Fraction(0)] * 3) == [0, 0, 0, 1]
    assert int_row(list(big))[-1] == (10**6 - 1) * (10**6 + 1)

    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.lists(st.fractions(max_denominator=10**7), max_size=8))
    def check(entries):
        row = int_row(entries)
        _assert_canonical([row])
        assert _values([row]) == [entries]

    check()


def test_pivot_equals_dense_gauss_jordan_step():
    # the dense Fraction oracle is the Gauss-Jordan step with the entering
    # column replaced by the leaving variable's, as an exchange step leaves
    # it
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(_sparse_rows(hypothesis.strategies))
    def check(case):
        fractions, r, col = case
        rows = [int_row(row) for row in fractions]
        pivot(rows, r, col)
        assert _values(rows) == dense_pivot(fractions, r, col)
        _assert_canonical(rows)

    check()


def test_pivot_never_mutates_a_row_it_replaces():
    # the vertex walk keeps the rows of earlier bases: every list taken from
    # the rows before a pivot must still hold its old entries after it
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(_sparse_rows(st), st.randoms(use_true_random=False))
    def check(case, rng):
        fractions, r, col = case
        rows = [int_row(row) for row in fractions]
        held = []
        for _ in range(4):
            held += [(row, list(row)) for row in rows]
            pivot(rows, r, col)
            r, col = rng.choice([(i, j) for i, row in enumerate(rows)
                                 for j, e in enumerate(row[:-1]) if e != 0])
        assert all(row == copy for row, copy in held)

    check()


def test_pivot_matches_full_tableau_on_exchange_chains():
    # chains of 50 exchanges on seeded integer tableaux: after every step
    # the dictionary rows equal, integer for integer, the full-tableau rows
    # restricted to the nonbasic columns. The last row is a cost row, with
    # no basic variable of its own. The samples take pivots on rows with a
    # zero right-hand side, negative pivots, and rows with f == 0
    rng = random.Random(2111)
    ratio0 = negative = untouched = steps = 0
    for _ in range(40):
        m, n = rng.randint(2, 5), rng.randint(2, 5)
        rows, full = [], []
        for i in range(m + 1):
            entries = [Fraction(rng.choice([0, 0, rng.randint(-9, 9)]),
                                rng.randint(1, 6)) for _ in range(n)]
            rhs = Fraction(rng.choice([0, rng.randint(-9, 9)]),
                           rng.randint(1, 4))
            unit = [Fraction(int(i == k)) for k in range(m)]
            rows.append(int_row(entries + [rhs]))
            full.append(int_row(entries + unit + [rhs]))
        basis, nonbasic = list(range(n, n + m)), list(range(n))
        for _ in range(50):
            choices = [(r, j) for r in range(m) for j in range(n) if rows[r][j]]
            if not choices:
                break
            r, j = rng.choice(choices)
            ratio0 += rows[r][-2] == 0
            negative += rows[r][j] < 0
            untouched += sum(1 for row in rows if row[j] == 0)
            pivot(rows, r, j)
            full_pivot(full, r, nonbasic[j])
            basis[r], nonbasic[j] = nonbasic[j], basis[r]
            assert rows == dictionary_rows(full, nonbasic)
            _assert_canonical(rows)
            steps += 1
    assert steps >= 1500
    assert min(ratio0, negative, untouched) >= 200


def test_min_dual_ratio_cols_matches_fraction_reference():
    # the entering candidates of a dual simplex step: over the slots where
    # the leaving row is negative, those tied at the least reduced cost
    # over minus the row's entry, each read as Fractions of its own row;
    # small drawn entries make ties, zero reduced costs and rows with no
    # negative entry all common
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    seen = Counter()

    def rows(n, entries):
        return st.builds(lambda e, b, d: e + [b, d],
                         st.lists(entries, min_size=n, max_size=n),
                         st.integers(-9, 9), st.integers(1, 6))

    @st.composite
    def cases(draw):
        n = draw(st.integers(1, 6))
        zrow = draw(rows(n, st.integers(0, 4)))
        row = draw(rows(n, st.integers(-4, 4)))
        if n > 1 and draw(st.booleans()):
            # a tie on purpose: one slot made negative, then the least
            # ratio's slot copied into another
            k = draw(st.integers(0, n - 1))
            row[k] = -abs(row[k]) or -1
            i = min((j for j in range(n) if row[j] < 0),
                    key=lambda j: Fraction(zrow[j], -row[j]))
            j = draw(st.integers(0, n - 2))
            j += j >= i
            zrow[j], row[j] = zrow[i], row[i]
        return zrow, row

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(cases())
    def check(case):
        zrow, row = case
        ratios = {j: Fraction(zrow[j], zrow[-1]) / Fraction(-a, row[-1])
                  for j, a in enumerate(row[:-2]) if a < 0}
        least = min(ratios.values(), default=None)
        tied = [j for j, r in ratios.items() if r == least]
        assert linalg.min_dual_ratio_cols(zrow, row) == tied
        seen["none"] += not tied
        seen["ties"] += len(tied) > 1
        seen["zero"] += least == 0

    check()
    assert min(seen.values()) >= 30


def test_pivot_path_length_pinned(monkeypatch):
    # the golden profiles pin where a run ends; these counts also pin how
    # many elimination steps it takes to get there: kernel pivots, plus one
    # row elimination per basic variable with a nonzero cost that a price-
    # out folds into the cost row, as many as a full tableau would pivot on
    calls = []

    def counting(rows, r, col):
        calls.append(None)
        pivot(rows, r, col)

    price_out = lp._price_out

    def pricing(rows, zrow, basis, nonbasic):
        calls.extend(None for b in basis if zrow[b])
        price_out(rows, zrow, basis, nonbasic)

    for module in (linalg, lp, polyhedra):
        monkeypatch.setattr(module, "pivot", counting)
    monkeypatch.setattr(lp, "_price_out", pricing)

    def count(run):
        calls.clear()
        run()
        return len(calls)

    # both grids stop at their first cell, whose pure profile has loss 0
    assert count(lambda: approx_absolute(rank1_family(5), Fraction(1, 10))) == 12
    assert count(lambda: approx_relative(rank1_family(4), Fraction(1, 4))) == 13
    # one vertex walk of 30 pivots, one per basis past the first: the game
    # is symmetric, so its Q vertices are P's relabelled; its twin with
    # b = 2 I is not, and walks P only, then solves the complementary face
    # of each of its 31 vertices, k + 1 pivots for support size k (linalg's
    # _solve_rows, whose pivot is patched above): 30 + 80 + 31
    assert count(lambda: enumerate_equilibria(identity_game(5))) == 30
    twin = BimatrixGame(identity_game(5).a, 2 * identity_game(5).b)
    assert count(lambda: enumerate_equilibria(twin)) == 141
    # grids with no loss-0 cell: 9 cell LPs each. The first cell solves
    # cold and each later one re-solves from the last optimal dictionary;
    # in rank1(7) two warm optima are not certified unique and solve cold
    # again. rank1(8) at 1/7 is the benchmark's 13-cell grid
    assert count(lambda: approx_absolute(rank1_family(7), Fraction(1, 5))) == 109
    assert count(lambda: approx_absolute(rank1_family(10), Fraction(1, 5))) == 76
    assert count(lambda: approx_absolute(rank1_family(8), Fraction(1, 7))) == 82


@pytest.mark.parametrize("a, b, message", [
    ([[1, 2]], [1], "coefficient matrix must be square"),
    ([[1, 0], [0, 1]], [1], "right-hand side length does not match"),
], ids=["non-square", "short-rhs"])
def test_solve_linear_system_shape_errors(a, b, message):
    with pytest.raises(ValueError, match=message):
        solve_linear_system(a, b)
