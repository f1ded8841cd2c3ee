"""Game container, loss, deviation bounds, and the QP objective identity."""

import copy
import pickle
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from rankgames import (
    BimatrixGame,
    MixedProfile,
    approx_absolute,
    approx_relative,
    best_response_values,
    check_deviation_bound,
    enumerate_equilibria,
    format_game_text,
    is_approximate_equilibrium,
    is_exact_equilibrium,
    loss,
    make_report,
    parse_game_text,
    payoffs,
    pure_profile,
    qp_objective,
    rank1_family,
)
from rankgames import cli, linalg
from rankgames.games import _evaluate

from helpers import (
    random_game,
    random_profile,
    reference_check_deviation_bound,
    reference_evaluate,
    reference_qp_objective,
)


def test_game_container_basics():
    g = rank1_family(2)
    assert [[int(e) for e in row] for row in g.a] == [[2, 7], [1, 8]]
    assert np.array_equal(g.b, g.a.T)
    assert [[int(e) for e in row] for row in g.c] == [[4, 8], [8, 16]]
    assert g.shape == (2, 2)
    assert g.rank_c == 1
    assert g.norm_c == 16
    assert g == BimatrixGame(g.a, g.b)
    assert g != rank1_family(3)


def test_games_refuse_assignment_and_copy_pickle():
    """A game refuses assignment, so a and b cannot fall out of step with
    the integer form that ==, loss and the walk read, and a constructed or
    loaded game survives copy, deepcopy and pickle, views built or not."""
    built = rank1_family(3)
    built.rank_c
    for game in (built, rank1_family(3),
                 parse_game_text(format_game_text(rank1_family(3))),
                 BimatrixGame([[1, 0]], [[0, Fraction(1, 2)]])):
        for other in (game, copy.copy(game), copy.deepcopy(game),
                      pickle.loads(pickle.dumps(game))):
            assert other == game and other.shape == game.shape
            assert np.array_equal(other.a, game.a)
            assert np.array_equal(other.b, game.b)
            assert other.rank_c == game.rank_c
            for name in ("a", "c", "norm_c", "_int_form"):
                with pytest.raises(
                        AttributeError,
                        match=f"^BimatrixGame is immutable: cannot set {name}$"):
                    setattr(other, name, rank1_family(2).a)
    assert built == rank1_family(3)
    # a copy carries the integer form only: taken after the views are
    # built, it builds its own again, read-only, on first read
    for game in (rank1_family(3),
                 parse_game_text(format_game_text(rank1_family(3))),
                 BimatrixGame([[1, 0]], [[0, Fraction(1, 2)]])):
        views = [getattr(game, name) for name in ("a", "b", "c")]
        for other in (copy.copy(game), copy.deepcopy(game),
                      pickle.loads(pickle.dumps(game))):
            assert not {"a", "b", "c"} & set(vars(other))
            assert other._int_form == game._int_form
            for name, view in zip(("a", "b", "c"), views):
                got = getattr(other, name)
                assert not got.flags.writeable
                assert np.array_equal(got, view) and got.shape == view.shape
                with pytest.raises(ValueError, match="read-only"):
                    got[0, 0] = Fraction(9)


def test_one_factorization_per_game(monkeypatch, capsys):
    """A game eliminates a+b only when something reads its factorization,
    and then once, however many readers share it."""
    calls = []

    def counting(matrix=None, **rows):
        # a game passes its integer rows, never a Fraction matrix
        calls.append(matrix)
        return factorize(matrix, **rows)

    factorize = linalg.rank_factorize
    # every module that imported the name, rankgames.games among them
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rankgames" and hasattr(module, "rank_factorize"):
            monkeypatch.setattr(module, "rank_factorize", counting)

    a = rank1_family(4).a
    g = BimatrixGame(a, a.T)
    assert len(enumerate_equilibria(g).reports) == 7
    assert calls == []

    monkeypatch.setattr(cli, "load_game", lambda path: g)
    assert g.rank_c == 1
    approx_absolute(g, Fraction(1, 10))
    approx_relative(g, Fraction(1, 4))
    assert cli.main(["rankfact", "game.txt"]) == 0
    assert "rank(A+B) = 1" in capsys.readouterr().err
    assert calls == [None]


def test_game_rejects_shape_mismatch_and_writes():
    with pytest.raises(ValueError):
        BimatrixGame([[1, 2]], [[1], [2]])
    g = rank1_family(2)
    with pytest.raises(ValueError):
        g.a[0, 0] = Fraction(9)


def test_profile_validation():
    with pytest.raises(ValueError):
        MixedProfile((Fraction(1, 2),), ())
    with pytest.raises(ValueError):
        MixedProfile(("1/2", "1/3"), (1,))  # sums to 5/6
    with pytest.raises(ValueError):
        MixedProfile(("-1/2", "3/2"), (1,))
    with pytest.raises(TypeError):
        MixedProfile((0.5, 0.5), (1,))
    p = MixedProfile(("1/2", "1/2", 0), (0, 1))
    assert p.support1 == (0, 1)
    assert p.support2 == (1,)


def test_profile_and_dimension_error_messages():
    with pytest.raises(ValueError, match="^x must be nonempty$"):
        MixedProfile((), (1,))
    with pytest.raises(ValueError, match="^y must be nonempty$"):
        MixedProfile((1,), ())
    with pytest.raises(ValueError, match="^x has a negative entry$"):
        MixedProfile(("-1/2", "3/2"), (1,))
    with pytest.raises(ValueError, match="^y has a negative entry$"):
        MixedProfile((1,), ("3/2", 0, "-1/2"))
    with pytest.raises(ValueError, match="^x must sum to 1 exactly$"):
        MixedProfile(("1/2", "1/3"), (1,))
    with pytest.raises(ValueError, match="^y must sum to 1 exactly$"):
        MixedProfile((1,), ("1/2", "1/3", "1/5"))
    g = rank1_family(2)
    for p in (pure_profile(3, 2, 0, 0), pure_profile(2, 3, 0, 0)):
        with pytest.raises(ValueError,
                           match="^profile dimensions do not match the game$"):
            loss(g, p)


def test_pure_profile():
    p = pure_profile(3, 2, 1, 0)
    assert p.x == (0, 1, 0)
    assert p.y == (1, 0)


def test_frozen_loss_values():
    g = rank1_family(2)
    assert loss(g, pure_profile(2, 2, 0, 0)) == 0
    assert loss(g, pure_profile(2, 2, 0, 1)) == 2
    mix = MixedProfile(("1/2", "1/2"), ("1/2", "1/2"))
    assert loss(g, mix) == 0
    assert best_response_values(g, mix) == (Fraction(9, 2), Fraction(9, 2))
    assert payoffs(g, pure_profile(2, 2, 1, 1)) == (Fraction(8), Fraction(8))


def test_loss_nonnegative_and_zero_iff_equilibrium():
    rng = random.Random(5150)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        g = random_game(rng, m, n)
        p = random_profile(rng, m, n)
        val = loss(g, p)
        assert val >= 0
        assert is_exact_equilibrium(g, p) == (val == 0)


def test_deviation_bound_matches_loss_threshold():
    # the pure-deviation check and the loss threshold agree at every eps
    rng = random.Random(77)
    for _ in range(40):
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        g = random_game(rng, m, n)
        p = random_profile(rng, m, n)
        for eps in (Fraction(0), Fraction(1, 10), Fraction(1, 2), Fraction(2)):
            assert check_deviation_bound(g, p, eps) == \
                is_approximate_equilibrium(g, p, eps)
    with pytest.raises(ValueError):
        is_approximate_equilibrium(g, p, Fraction(-1))


def test_zero_sum_norm_collapses_approximation_threshold():
    # |a+b| = 0 makes eps|a+b| = 0: only exact equilibria pass, at any eps
    pennies = BimatrixGame([[1, -1], [-1, 1]], [[-1, 1], [1, -1]])
    uniform = MixedProfile(("1/2", "1/2"), ("1/2", "1/2"))
    assert is_approximate_equilibrium(pennies, uniform, Fraction(1, 100))
    corner = pure_profile(2, 2, 0, 0)
    assert loss(pennies, corner) == 2
    assert not is_approximate_equilibrium(pennies, corner, Fraction(1000))


def test_loss_invariant_under_constant_shift():
    rng = random.Random(88)
    for _ in range(20):
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        g = random_game(rng, m, n)
        p = random_profile(rng, m, n)
        alpha = Fraction(rng.randint(-5, 5))
        shifted = BimatrixGame(g.a + alpha, g.b)
        assert loss(shifted, p) == loss(g, p)


def test_qp_objective_equals_loss():
    rng = random.Random(99)
    for _ in range(50):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        g = random_game(rng, m, n)
        p = random_profile(rng, m, n)
        assert qp_objective(g, p) == loss(g, p)


def test_make_report_fields_and_kinds():
    g = rank1_family(2)
    p = MixedProfile(("1/2", "1/2"), ("1/2", "1/2"))
    rep = make_report(g, p)
    assert rep.kind == "exact"
    assert rep.loss == 0
    assert rep.payoff1 == rep.payoff2 == Fraction(9, 2)
    assert rep.support1 == rep.support2 == (0, 1)
    rep = make_report(g, p, kind="eps-approximate", parameter=Fraction(1, 10))
    assert rep.parameter == Fraction(1, 10)
    with pytest.raises(ValueError):
        make_report(g, p, kind="nearly-exact")


def test_evaluate_matches_the_fraction_reference_and_cross_checks():
    """The integer-row evaluation equals the NumPy Fraction reference tuple
    for tuple, loss equals the QP objective, and the pure-deviation check
    agrees with the loss threshold, at a drawn eps and at the eps where the
    loss sits exactly on the threshold."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # negative entries over several denominators, so a and b, and x and y,
    # each have a common denominator other than their entries' own
    entries = st.builds(Fraction, st.integers(-12, 12),
                        st.sampled_from([1, 2, 3, 4, 5, 6, 7, 12]))
    weights = st.builds(Fraction, st.integers(0, 6), st.sampled_from([1, 2, 3, 5]))

    def simplex_point(d):
        return st.lists(weights, min_size=d, max_size=d).filter(any).map(
            lambda w: tuple(e / sum(w) for e in w))

    @st.composite
    def cases(draw):
        m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        matrix = st.lists(st.lists(entries, min_size=n, max_size=n),
                          min_size=m, max_size=m)
        game = BimatrixGame(draw(matrix), draw(matrix))
        profile = MixedProfile(draw(simplex_point(m)), draw(simplex_point(n)))
        eps = draw(st.builds(Fraction, st.integers(0, 8), st.integers(1, 8)))
        return game, profile, eps

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(cases())
    def check(case):
        game, profile, eps = case
        got = _evaluate(game, profile)
        assert got == reference_evaluate(game, profile)
        assert all(type(v) is Fraction for v in got)
        assert loss(game, profile) == qp_objective(game, profile)
        tight = got[0] / game.norm_c if game.norm_c else Fraction(0)
        for e in (eps, tight):
            assert check_deviation_bound(game, profile, e) == \
                is_approximate_equilibrium(game, profile, e)

    check()


def test_list_cross_checks_match_the_numpy_references():
    """qp_objective and check_deviation_bound, on lists of Fractions, give
    exactly what their NumPy object-array bodies gave, on rectangular games
    and profiles of entries p/q, at a drawn eps and at the eps where the
    loss sits exactly on the threshold; a profile of the wrong size is
    refused by both."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entries = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
    weights = st.builds(Fraction, st.integers(0, 5), st.integers(1, 6))

    def simplex_point(d):
        return st.lists(weights, min_size=d, max_size=d).filter(any).map(
            lambda w: tuple(e / sum(w) for e in w))

    @st.composite
    def cases(draw):
        m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        matrix = st.lists(st.lists(entries, min_size=n, max_size=n),
                          min_size=m, max_size=m)
        game = BimatrixGame(draw(matrix), draw(matrix))
        profile = MixedProfile(draw(simplex_point(m)), draw(simplex_point(n)))
        eps = draw(st.builds(Fraction, st.integers(0, 8), st.integers(1, 8)))
        return game, profile, eps

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(cases())
    def check(case):
        game, profile, eps = case
        got = qp_objective(game, profile)
        assert type(got) is Fraction
        assert got == reference_qp_objective(game, profile)
        tight = loss(game, profile) / game.norm_c if game.norm_c else Fraction(0)
        for e in (eps, tight, tight / 2):
            assert check_deviation_bound(game, profile, e) is \
                reference_check_deviation_bound(game, profile, e)
        wrong = MixedProfile((1,) + (0,) * game.m, profile.y)
        for call in (qp_objective, reference_qp_objective):
            with pytest.raises(ValueError):
                call(game, wrong)
        for call in (check_deviation_bound, reference_check_deviation_bound):
            with pytest.raises(ValueError):
                call(game, wrong, eps)

    check()


@pytest.mark.parametrize("call, expected", [
    (lambda g: is_approximate_equilibrium(g, pure_profile(2, 2, 0, 0), -1),
     ValueError("eps must be nonnegative")),
    (lambda g: g == 1, False),
    (repr, "BimatrixGame(2x2, rank_c=1)"),
    (lambda g: pure_profile(2, 2, 0, 0) == ((1, 0), (1, 0)), False),
], ids=["negative-eps", "eq-non-game", "repr", "eq-non-profile"])
def test_game_edge_branches(call, expected):
    game = rank1_family(2)
    if isinstance(expected, Exception):
        with pytest.raises(type(expected), match=str(expected)):
            call(game)
    else:
        assert call(game) == expected
