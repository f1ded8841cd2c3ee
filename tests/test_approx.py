"""Truncation, perturbation, and the two grid-LP approximation schemes."""

import random
from fractions import Fraction

import numpy as np
import pytest

from rankgames import (
    BimatrixGame,
    CapExceededError,
    MixedProfile,
    RankFactorization,
    approx_absolute,
    approx_relative,
    block_game,
    enumerate_by_supports,
    equilibrium_survives_perturbation,
    fraction_matrix,
    loss,
    matrix_rank,
    max_abs_entry,
    perturb_game,
    pure_profile,
    rank1_family,
    squared_difference_family,
    svd_truncate,
)

from helpers import random_game, random_matrix


def test_svd_truncate_exact_shortcut_and_zero():
    c = rank1_family(3).c
    assert np.array_equal(svd_truncate(c, 1), c)
    assert np.array_equal(svd_truncate(c, 5), c)
    z = svd_truncate(c, 0)
    assert all(e == 0 for e in z.flat)
    with pytest.raises(ValueError):
        svd_truncate(c, -1)


def test_svd_truncate_rank_and_quality():
    rng = random.Random(271828)
    for _ in range(15):
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        c = fraction_matrix(random_matrix(rng, m, n, -9, 9))
        for k in (1, 2):
            ck = svd_truncate(c, k)
            assert matrix_rank(ck) <= k
            assert all(isinstance(e, Fraction) for e in ck.flat)
            if k >= matrix_rank(c):
                assert np.array_equal(ck, c)


def test_perturb_game_bookkeeping():
    g = BimatrixGame([[3, 1], [1, 3]], [[1, 1], [1, 1]])  # c rank 2, norm 4
    cp = fraction_matrix([[4, 2], [2, 3]])
    pert = perturb_game(g, cp)
    assert pert.eps == Fraction(1, 4)
    assert np.array_equal(pert.c_prime, cp)
    assert np.array_equal(pert.perturbed.c, cp)
    # the difference is split evenly between the players
    assert np.array_equal(pert.perturbed.a - g.a, pert.perturbed.b - g.b)


def test_perturb_game_validation():
    g = BimatrixGame([[3, 1], [1, 3]], [[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        perturb_game(g, [[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        perturb_game(g, [[9, 9], [9, 9]])  # as large as the scale itself
    pennies = BimatrixGame([[1, -1], [-1, 1]], [[-1, 1], [1, -1]])
    with pytest.raises(ValueError):
        perturb_game(pennies, [[1, 0], [0, 0]])


def test_survival_needs_an_exact_equilibrium():
    g = rank1_family(2)
    pert = perturb_game(g, g.c + Fraction(1))  # small uniform shift
    with pytest.raises(ValueError):
        equilibrium_survives_perturbation(pert, pure_profile(2, 2, 0, 1))


def test_exact_equilibria_survive_rank_one_truncation():
    rng = random.Random(1009)
    done = 0
    while done < 8:
        g = random_game(rng, rng.randint(2, 3), rng.randint(2, 3))
        if g.norm_c == 0:
            continue
        cp = svd_truncate(g.c, 1)
        if max_abs_entry(cp - g.c) >= g.norm_c:
            continue
        pert = perturb_game(g, cp)
        for p in enumerate_by_supports(g):
            assert equilibrium_survives_perturbation(pert, p)
        done += 1


def test_absolute_contract_rank1():
    g = rank1_family(3)
    eps = Fraction(1, 10)
    rep = approx_absolute(g, eps)
    assert rep.kind == "eps-approximate"
    assert rep.parameter == eps
    assert rep.loss == loss(g, rep.profile)
    assert rep.loss <= eps * g.norm_c


def test_absolute_monotone_under_shrinking_eps():
    g = BimatrixGame([[2, 4], [4, 8]], [[2, 4], [4, 8]])
    losses = [approx_absolute(g, e).loss
              for e in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))]
    assert losses == [Fraction(2), Fraction(1), Fraction(1, 2)]
    assert all(a >= b for a, b in zip(losses, losses[1:]))
    zero_losses = [approx_absolute(rank1_family(4), e).loss
                   for e in (Fraction(1, 5), Fraction(1, 10), Fraction(1, 20))]
    assert zero_losses == [0, 0, 0]


def test_absolute_rank2_contract():
    g = BimatrixGame(
        np.block([[rank1_family(2).a, np.full((2, 2), Fraction(0), dtype=object)],
                  [np.full((2, 2), Fraction(0), dtype=object), rank1_family(2).a]]),
        np.block([[rank1_family(2).b, np.full((2, 2), Fraction(0), dtype=object)],
                  [np.full((2, 2), Fraction(0), dtype=object), rank1_family(2).b]]),
    )
    assert g.rank_c == 2
    eps = Fraction(1, 2)
    rep = approx_absolute(g, eps)
    assert rep.loss <= eps * g.norm_c


def test_absolute_zero_sum_path():
    pennies = BimatrixGame([[1, -1], [-1, 1]], [[-1, 1], [1, -1]])
    rep = approx_absolute(pennies, Fraction(1, 10))
    assert rep.loss == 0
    assert rep.profile.x == (Fraction(1, 2), Fraction(1, 2))


def test_absolute_determinism():
    g = BimatrixGame([[2, 4], [4, 8]], [[2, 4], [4, 8]])
    a = approx_absolute(g, Fraction(1, 4))
    b = approx_absolute(g, Fraction(1, 4))
    assert a.profile == b.profile and a.loss == b.loss


def test_absolute_guards():
    with pytest.raises(ValueError):
        approx_absolute(rank1_family(2), Fraction(0))
    with pytest.raises(CapExceededError):
        approx_absolute(squared_difference_family(3), Fraction(1, 2), rank_guard=2)


def test_golden_profiles():
    # the exact reports of both grid schemes are pinned; test_lp pins the
    # simplex's pivot path itself, which these small games do not exercise
    rep = approx_absolute(rank1_family(5), Fraction(1, 10))
    assert (rep.profile, rep.loss, rep.payoff1, rep.payoff2) == (
        pure_profile(5, 5, 0, 0), 0, 2, 2)
    rep = approx_relative(rank1_family(4), Fraction(1, 4))
    assert (rep.profile, rep.loss, rep.payoff1, rep.payoff2) == (
        pure_profile(4, 4, 0, 0), 0, 2, 2)
    assert rep.parameter == Fraction(9, 25)
    # rank 2 pins how the factor rows and the cell midpoints line up with
    # several axes, which rank 1 cannot: the block game has two linear axes,
    # the relative game four geometric ones interleaved as z_1, w_1, z_2, w_2
    rep = approx_absolute(block_game(rank1_family(2), rank1_family(3)),
                          Fraction(1, 2))
    half = (0, 0, Fraction(1, 2), Fraction(1, 2), 0)
    assert (rep.profile, rep.loss, rep.payoff1, rep.payoff2) == (
        MixedProfile(half, half), 0, Fraction(9, 2), Fraction(9, 2))
    rep = approx_relative(REL2, Fraction(1, 2), decomp=REL2_DECOMP)
    assert (rep.profile, rep.loss, rep.payoff1, rep.payoff2) == (
        MixedProfile((Fraction(1, 2), 0, Fraction(1, 2)),
                     (Fraction(3, 8), 0, Fraction(5, 8))),
        Fraction(3, 8), Fraction(17, 8), 4)
    assert rep.parameter == Fraction(5, 9)


def test_absolute_exhausted_rounds_raise():
    with pytest.raises(RuntimeError):
        approx_absolute(rank1_family(3), Fraction(1, 10), max_rounds=0)


def _pair(u, v):
    return (tuple(Fraction(e) for e in u), tuple(Fraction(e) for e in v))


# a rank-2 game with a positive two-pair decomposition of a + b
REL2_DECOMP = RankFactorization(
    shape=(3, 3),
    pairs=(_pair((1, 2, 3), (2, 1, 1)), _pair((2, 1, 1), (1, 1, 3))),
    nonnegative=True,
)
REL2 = BimatrixGame([[3, 0, 1], [1, 2, 0], [0, 1, 4]],
                    [[1, 3, 6], [4, 1, 5], [7, 3, 2]])


def test_relative_contract_with_explicit_decomposition():
    for d, eps in ((2, Fraction(1, 2)), (3, Fraction(1, 4))):
        g = rank1_family(d)
        decomp = RankFactorization(
            shape=(d, d),
            pairs=(_pair(range(2, 2 * d + 1, 2), range(2, 2 * d + 1, 2)),),
            nonnegative=True,
        )
        rep = approx_relative(g, eps, decomp=decomp)
        rho = 1 - 1 / (1 + eps) ** 2
        assert rep.kind == "relative-approximate"
        assert rep.parameter == rho
        x, y = rep.profile.x, rep.profile.y
        v1 = max(sum(g.a[i, j] * y[j] for j in range(d)) for i in range(d))
        v2 = max(sum(x[i] * g.b[i, j] for i in range(d)) for j in range(d))
        s = v1 + v2
        bilinear = sum(x[i] * g.c[i, j] * y[j]
                       for i in range(d) for j in range(d))
        assert s - bilinear <= rho * s
        assert rep.loss == s - bilinear


def test_relative_auto_decomposition():
    g = rank1_family(3)
    rep = approx_relative(g, Fraction(1, 4))
    assert rep.loss <= rep.parameter * (rep.loss + Fraction(
        sum(rep.profile.x[i] * g.c[i, j] * rep.profile.y[j]
            for i in range(3) for j in range(3))))


def test_relative_zero_entry_weakens_but_still_answers():
    c = fraction_matrix([[0, 0], [4, 8]])
    half = c * Fraction(1, 2)
    g = BimatrixGame(half, half.copy())
    rep = approx_relative(g, Fraction(1, 2))
    assert rep.kind == "relative-approximate"
    assert rep.loss >= 0
    assert sum(rep.profile.x) == 1 and sum(rep.profile.y) == 1


def test_relative_guards():
    with pytest.raises(ValueError):
        approx_relative(rank1_family(2), Fraction(0))
    with pytest.raises(ValueError):
        approx_relative(squared_difference_family(3), Fraction(1, 2))  # negative c
    g = rank1_family(2)
    with pytest.raises(ValueError):
        approx_relative(g, Fraction(1, 2), decomp=RankFactorization(
            shape=(3, 3), pairs=(_pair((2, 4, 6), (2, 4, 6)),), nonnegative=True))
    with pytest.raises(ValueError):
        approx_relative(g, Fraction(1, 2), decomp=RankFactorization(
            shape=(2, 2), pairs=(_pair((1, 2), (1, 2)),), nonnegative=True))
    zero = BimatrixGame([[0]], [[0]])
    fivezeros = RankFactorization(
        shape=(1, 1), pairs=tuple(_pair((0,), (0,)) for _ in range(5)),
        nonnegative=True)
    with pytest.raises(CapExceededError):
        approx_relative(zero, Fraction(1, 2), decomp=fivezeros)
