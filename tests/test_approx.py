"""Truncation, perturbation, and the two grid-LP approximation schemes."""

import random
from collections import Counter
from dataclasses import replace
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
    format_game_text,
    identity_game,
    loss,
    matrix_rank,
    perturb_game,
    pure_profile,
    rank1_family,
    rank_factorize,
    solve_zero_sum,
    squared_difference_family,
    svd_truncate,
)

from rankgames import approx as approx_module
from rankgames import cli
from rankgames.approx import _geometric_axis, _interval_axis
from rankgames import lp as lp_module
from rankgames.errors import MAX_WORK
from rankgames.linalg import int_row
from rankgames.lp import StandardForm

from helpers import (
    NEG,
    SHARED,
    random_game,
    random_matrix,
    reference_cost_row,
    reference_dictionary,
    reference_grid_cells,
    reference_grid_lp,
    reference_perturb_game,
    reference_start,
    reference_svd_truncate,
)


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
        c = random_matrix(rng, m, n, -9, 9)
        for k in (1, 2):
            ck = svd_truncate(c, k)
            assert matrix_rank(ck) <= k
            assert all(isinstance(e, Fraction) for e in ck.flat)
            if k >= matrix_rank(c):
                assert np.array_equal(ck, c)


def test_perturb_game_bookkeeping():
    g = BimatrixGame([[3, 1], [1, 3]], [[1, 1], [1, 1]])  # c rank 2, norm 4
    cp = [[4, 2], [2, 3]]
    pert = perturb_game(g, cp)
    assert pert.eps == Fraction(1, 4)
    assert np.array_equal(pert.c_prime, cp)
    assert np.array_equal(pert.perturbed.c, cp)
    # the difference is split evenly between the players
    assert np.array_equal(pert.perturbed.a - g.a, pert.perturbed.b - g.b)


def _outcome(func, *args):
    """What a call gives: a returned array's dtype, shape, writeable flag
    and typed entries, a perturbation's eps and perturbed integer form, or
    a ValueError's message."""
    try:
        got = func(*args)
    except ValueError as exc:
        return "ValueError", str(exc)
    if isinstance(got, np.ndarray):
        return (got.dtype, got.shape, got.flags.writeable,
                [(type(e), e) for e in got.flat])
    return got.eps, got.perturbed._int_form


def test_perturb_path_matches_the_object_array_reference(
        tmp_path, capsys, monkeypatch):
    """svd_truncate and perturb_game on rows give what their object-array
    bodies gave, on drawn rational games of 1..6 x 1..6 and the four
    families at k = 0..3, and perturb prints the same bytes with them.
    Compared in one process, since a float SVD may differ between
    LAPACK builds."""
    rng = random.Random(32032)
    games = [rank1_family(3), squared_difference_family(4), identity_game(3),
             block_game(identity_game(2), rank1_family(3))]
    for _ in range(30):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        games.append(BimatrixGame(*(
            [[Fraction(rng.randint(-9, 9), rng.randint(1, 4))
              for _ in range(n)] for _ in range(m)] for _ in "ab")))
    path = tmp_path / "g.txt"
    for game in games:
        for k in range(4):
            got = svd_truncate(game.c, k)
            assert _outcome(svd_truncate, game.c, k) == _outcome(
                reference_svd_truncate, game.c, k)
            for cp in (got, got.tolist()):
                assert _outcome(perturb_game, game, cp) == _outcome(
                    reference_perturb_game, game, cp)
        path.write_text(format_game_text(game))
        for k in ("1", "2"):
            runs = []
            for truncate, perturb in ((svd_truncate, perturb_game),
                                      (reference_svd_truncate,
                                       reference_perturb_game)):
                monkeypatch.setattr(cli, "svd_truncate", truncate)
                monkeypatch.setattr(cli, "perturb_game", perturb)
                code = cli.main(["perturb", str(path), "--k", k])
                runs.append((code, *capsys.readouterr()))
            assert runs[0] == runs[1]


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
        if max(abs(e) for e in (cp - g.c).flat) >= g.norm_c:
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
    # the rank is no guard: a rank-5 game whose grid is one cell is solved
    g = identity_game(5)
    assert g.rank_c == 5
    rep = approx_absolute(g, Fraction(5))
    assert rep.loss <= 5 * g.norm_c


def test_grid_axes():
    f = Fraction
    # the last cell is cut at the range maximum; an interval axis keeps
    # each cell as the integer row of its two ends
    assert _interval_axis(f(0), f(1), f(3, 10)) == [tuple(int_row(cell)) for cell in [
        (0, f(3, 10)), (f(3, 10), f(3, 5)), (f(3, 5), f(9, 10)), (f(9, 10), 1)]]
    assert _interval_axis(f(2), f(2), f(1)) == [tuple(int_row([2, 2]))]
    assert _geometric_axis([f(1), f(3)], f(1)) == ([(1, 2), (2, 3)], False)
    assert _geometric_axis([f(2), f(2)], f(1)) == ([(2, 2)], False)
    assert _geometric_axis([f(0), f(0)], f(1)) == ([(0, 0)], False)
    # a zero minimum adds the leading cell [0, max * eps / (1 + eps)]
    assert _geometric_axis([f(0), f(4), f(5)], f(1)) == (
        [(0, f(5, 2)), (f(5, 2), 5)], True)
    with pytest.raises(ValueError):
        _geometric_axis([f(-1), f(1)], f(1))
    with pytest.raises(CapExceededError, match="above the bound 4096"):
        _interval_axis(f(0), f(1), f(1, MAX_WORK + 1))
    assert len(_interval_axis(f(0), f(1), f(1, MAX_WORK))) == MAX_WORK


def test_geometric_axis_refused_before_it_is_built(monkeypatch):
    f = Fraction
    # 2^4096 is reached in exactly MAX_WORK doubling cells
    cells, _ = _geometric_axis([f(1), f(2) ** MAX_WORK], f(1))
    assert len(cells) == MAX_WORK

    def no_axis(*args):
        raise AssertionError("the axis was walked before its length was bounded")

    monkeypatch.setattr("rankgames.approx._axis", no_axis)
    for entries, eps in [
        ([f(1), f(2) ** MAX_WORK + 1], f(1)),
        ([f(1), f(2)], f(1, 10**9)),
        ([f(0), f(1), f(2)], f(1, 10**9)),  # the eta..hi part of a zero minimum
    ]:
        with pytest.raises(CapExceededError, match="above the bound 4096"):
            _geometric_axis(entries, eps)


def _no_lp(*args, **kwargs):
    raise AssertionError("a cell LP ran before the cell bound was checked")


def test_grid_cell_bound_raises_before_any_lp(monkeypatch):
    # the grid builds its one standard form only after the bound holds
    monkeypatch.setattr("rankgames.approx.StandardForm", _no_lp)
    # 27648 cells at eps = 1/4
    with pytest.raises(CapExceededError, match="27648 cells"):
        approx_absolute(squared_difference_family(3), Fraction(1, 4))
    with pytest.raises(CapExceededError, match="above the bound 4096"):
        approx_relative(rank1_family(2), Fraction(1, 1000))
    # an axis is refused while it is built, so even eps = 1e-9 is quick
    for scheme in (approx_absolute, approx_relative):
        with pytest.raises(CapExceededError, match="above the bound 4096"):
            scheme(rank1_family(2), Fraction(1, 10**9))


def test_grid_cell_bound_holds_when_the_first_cell_has_loss_0(monkeypatch):
    # the bound is on the whole grid, checked before any LP runs, so a grid
    # whose search would stop at its first cell is refused all the same
    calls = []
    solve_rows = StandardForm.solve_rows

    def count(form, rhs, cost):
        calls.append(rhs)
        return solve_rows(form, rhs, cost)

    game, eps = rank1_family(5), Fraction(1, 50)  # two axes of 82 cells
    with monkeypatch.context() as mp:
        mp.setattr("rankgames.approx.StandardForm", _no_lp)
        with pytest.raises(CapExceededError, match="6724 cells in the grid"):
            approx_relative(game, eps)
    monkeypatch.setattr("rankgames.errors.MAX_WORK", 6724)
    monkeypatch.setattr(StandardForm, "solve_rows", count)
    rep = approx_relative(game, eps)
    assert (rep.profile, rep.loss, len(calls)) == (pure_profile(5, 5, 0, 0), 0, 1)


def test_grid_cell_bound_admits_sqdiff3_at_one_half(monkeypatch):
    calls = []

    def infeasible(form, rhs, cost):
        calls.append(rhs)
        return "infeasible", None, None

    monkeypatch.setattr("rankgames.lp.StandardForm.solve_rows", infeasible)
    with pytest.raises(RuntimeError, match="this is a bug"):
        approx_absolute(squared_difference_family(3), Fraction(1, 2))
    assert len(calls) == 3456 <= MAX_WORK


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


def test_grid_rows_match_reference_builder(monkeypatch):
    # each cell passes its right-hand sides as int pairs, the values of the
    # reference cells' Fractions, and its objective as an integer row, int_row
    # of the reference cell's; the cost row priced out is int_row of the
    # Fraction cost over the standard columns. The search stops at its
    # first loss-0 cell, so the cells it solves are a prefix of the
    # reference cells. The grid's standard form is built on int_row of
    # each row of the reference Fraction LP, and every reference cell's
    # start dictionary, solved or not, is the Fraction slack-basis
    # reference's for that LP with the cell's right-hand side
    calls = []
    solve_rows = StandardForm.solve_rows
    price_out = lp_module._price_out
    finish = StandardForm._lex_finish

    def record(form, rhs, cost):
        calls.append([form, rhs, cost, [], [], None])
        result = solve_rows(form, rhs, cost)
        calls[-1][5] = result[0]
        return result

    def priced(rows, zrow, basis, nonbasic):
        calls[-1][3].append(list(zrow))
        price_out(rows, zrow, basis, nonbasic)

    def finishing(form, *args):
        # the rows the finish prices out are its tie-break objectives
        zrows = calls[-1][3]
        done = len(zrows)
        result = finish(form, *args)
        calls[-1][4] = zrows[done:]
        del zrows[done:]
        return result

    monkeypatch.setattr(StandardForm, "solve_rows", record)
    monkeypatch.setattr(lp_module, "_price_out", priced)
    monkeypatch.setattr(StandardForm, "_lex_finish", finishing)
    grids = []
    feasible = 0
    finished = 0
    for scheme, game, eps, decomp in [
        ("abs", block_game(rank1_family(2), rank1_family(3)), Fraction(1, 2),
         None),
        ("rel", rank1_family(4), Fraction(1, 4), None),
        ("rel", REL2, Fraction(1, 2), REL2_DECOMP),
        ("abs", SHARED, Fraction(1), None),
        ("abs", NEG, Fraction(1, 2), None),
    ]:
        del calls[:]
        if scheme == "abs":
            rep = approx_absolute(game, eps)
        else:
            rep = approx_relative(game, eps, decomp=decomp)
        cells = reference_grid_cells(game, eps, scheme, decomp)
        grids.append((len(calls), len(cells), rep.loss))
        form = calls[0][0]
        nvars = len(form.free)
        ties = [reference_cost_row(form, [-int(i == j) for i in range(nvars)])
                for j in range(nvars)]
        for (_, rhs, cost, zrows, tied, status), (ref_rhs, objective) \
                in zip(calls, cells):
            assert [Fraction(b, d) for b, d in rhs] == ref_rhs
            assert cost == int_row(objective)
            # a feasible cell prices its cost out once, an infeasible cell
            # none. A tied optimum then prices out "maximize x_1",
            # "maximize x_2", ... in variable order, until the point is
            # unique
            feasible += status == "optimal"
            finished += bool(tied)
            assert zrows == [reference_cost_row(form, objective)] * (
                status == "optimal")
            assert tied == ties[:len(tied)]
            assert form._start(rhs)[1:] == form._start(
                [(b.numerator, b.denominator) for b in ref_rhs])[1:]
        lp = reference_grid_lp(game, scheme, decomp)
        assert form.rows == StandardForm(
            [int_row(row) for row in lp.lhs], lp.senses,
            [lo is None for lo in lp.lower]).rows
        for ref_rhs, _ in cells:
            assert form._start(
                [(b.numerator, b.denominator) for b in ref_rhs]
            )[1:] == reference_start(replace(lp, rhs=tuple(ref_rhs)))
    # (cells solved, cells in the grid, loss): REL2 and SHARED have no
    # loss-0 cell, so their searches are exhaustive, and an infeasible
    # cell prices out no cost row; 51 of the 67 solved cells are
    # feasible, so both kinds are checked
    assert grids == [(5, 32, 0), (1, 49, 0), (36, 36, Fraction(3, 8)),
                     (24, 24, Fraction(247, 6831)), (1, 7, 0)]
    assert feasible == 51
    # one cell of the block grid and five of REL2's have tied warm optima,
    # which finish lexicographically, so the tie-break rows are checked too
    assert finished == 6
    # NEG's cells wholly below 0 start the factor's <= row at a negative
    # right-hand side, and the cells above 0 its >= row
    assert [(lo < 0, hi < 0) for lo, hi in (rhs[-2:] for rhs, _ in cells)] == [
        (True, True), (True, True), (True, False)] + [(False, False)] * 4


class _Started(Exception):
    """Raised by a patched StandardForm._start, carrying its form, its
    right-hand sides and the start dictionary, to stop a grid once its
    first cell's start is written."""


def test_start_dictionary_matches_gauss_jordan(monkeypatch):
    # the start dictionary of a grid's first cell must be that of its slack
    # basis: every inequality row's slack basic, and the two sum rows
    # pivoted in on x_1 and y_1, their least-indexed columns. Each row
    # must equal the Fraction Gauss-Jordan reference as a reduced integer
    # row, whatever the signs, shapes and denominators, for the absolute
    # grid, the relative one (factor rows on y too) and the rank-0 grid of
    # a zero-sum game (cap 0, no factor rows), and the cost row is 1 in
    # every slot
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    start = StandardForm._start

    def capture(form, rhs):
        raise _Started(form, rhs, start(form, rhs))

    monkeypatch.setattr(StandardForm, "_start", capture)
    seen = Counter()

    @st.composite
    def grids(draw):
        m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        da, db = draw(st.integers(1, 6)), draw(st.integers(1, 6))

        def matrix(den, lo=-5, hi=5):
            entry = st.builds(Fraction, st.integers(lo, hi), st.just(den))
            return draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                 min_size=m, max_size=m))

        scheme = draw(st.sampled_from(["abs", "rel", "zero"]))
        a = matrix(da)
        if scheme == "zero":
            return scheme, BimatrixGame(a, [[-e for e in r] for r in a]), None
        if scheme == "abs":
            return scheme, BimatrixGame(a, matrix(db)), None
        # b = u v^T - a has the nonnegative rank-1 decomposition (u, v)
        u = [Fraction(e, db) for e in draw(
            st.lists(st.integers(1, 4), min_size=m, max_size=m))]
        v = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
        b = [[ui * vj - e for vj, e in zip(v, r)] for ui, r in zip(u, a)]
        decomp = RankFactorization((m, n), ((tuple(u), tuple(v)),))
        return scheme, BimatrixGame(a, b), decomp

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(grids())
    def check(grid):
        scheme, game, decomp = grid
        # a grid of more than MAX_WORK cells is refused before its first
        # cell starts, and has no start to check
        with pytest.raises((_Started, CapExceededError)) as started:
            if scheme == "zero":
                solve_zero_sum(game)
            elif scheme == "rel":
                approx_relative(game, Fraction(1, 2), decomp=decomp)
            else:
                approx_absolute(game, Fraction(2))
        hypothesis.assume(started.type is _Started)
        form, rhs, (kept_rhs, rows, basis, nonbasic) = started.value.args
        assert kept_rhs == rhs
        *rows, cost = rows
        assert rows == reference_dictionary(form, rhs, basis, nonbasic)
        assert cost == [1] * len(nonbasic) + [0, 1]
        m, n = game.shape
        slacks = [k for k, _ in form.slack[:m + n]]
        slacks += [k for k, _ in form.slack[m + n + 2:]]
        assert basis == slacks[:m + n] + [0, m] + slacks[m + n:]
        assert nonbasic == [c for c in range(form.nstd) if c not in (0, m)]
        a_rows, da, bt_rows, db = game._int_form
        seen.update([scheme, (m == 1, n == 1)])
        seen.update(["dens"] * (da != db)
                    + ["negative"] * any(row[-2] < 0 for row in rows))
        if scheme == "zero":
            assert len(form.rows) == m + n + 3 and rhs[-1] == (0, 1)

    check()
    # every kind of draw is there: each scheme, a single row, a single
    # column and both, two denominators, and a start basis infeasible for
    # the first cell
    assert min(seen[k] for k in ("abs", "rel", "zero", "dens",
                                 "negative")) >= 20
    assert min(seen[k] for k in ((True, False), (False, True),
                                 (True, True))) >= 5


# the fixed commands of the approx-grid benchmark workload
WORKLOAD_GRIDS = [
    ("abs", ("rank1", 5), Fraction(1, 20)),
    ("abs", ("rank1", 6), Fraction(1, 14)),
    ("abs", ("rank1", 7), Fraction(1, 10)),
    ("abs", ("rank1", 8), Fraction(1, 7)),
    ("abs", ("rank1", 9), Fraction(1, 6)),
    ("abs", ("rank1", 10), Fraction(1, 5)),
    ("rel", ("rank1", 4), Fraction(1, 4)),
    ("rel", ("rank1", 5), Fraction(1, 3)),
    ("abs", ("block", 2, 3), Fraction(1, 2)),
    ("rel", ("rank1", 5), Fraction(1, 4)),
    ("abs", ("block", 3, 3), Fraction(1, 2)),
]


def test_grids_start_warm(monkeypatch):
    # a grid's first cell solves from the form's start dictionary, and so
    # does each cell while no cell has been feasible; every later cell
    # starts warm from the last optimal dictionary, and none is handed
    # back: a warm optimum that is not certified unique finishes
    # lexicographically in place
    log = []
    begin, warm = StandardForm._start, StandardForm._warm
    finish = StandardForm._lex_finish

    def logged_start(form, rhs):
        log.append("start")
        return begin(form, rhs)

    def logged_warm(form, rhs, zrow, start=None):
        result = warm(form, rhs, zrow, start)
        log.append("handed back" if result is None else
                   ("from start " if start else "") + result[0])
        return result

    def logged_finish(form, *args):
        log.append("finish")
        return finish(form, *args)

    monkeypatch.setattr(StandardForm, "_start", logged_start)
    monkeypatch.setattr(StandardForm, "_warm", logged_warm)
    monkeypatch.setattr(StandardForm, "_lex_finish", logged_finish)
    approx_absolute(rank1_family(5), Fraction(1, 10))
    assert log == ["start", "from start optimal"]
    logs = {}
    for scheme, spec, eps in WORKLOAD_GRIDS:
        del log[:]
        if spec[0] == "block":
            game = block_game(rank1_family(spec[1]), rank1_family(spec[2]))
        else:
            game = rank1_family(spec[1])
        (approx_absolute if scheme == "abs" else approx_relative)(game, eps)
        logs[scheme, spec, eps] = Counter(log)
    assert not any(c["handed back"] for c in logs.values())
    # the block grids' first cells are infeasible, so their second cells
    # start from the start dictionary too; every other grid starts once
    blocks = (("block", 2, 3), ("block", 3, 3))
    assert {key: (c["start"], c["from start infeasible"])
            for key, c in logs.items()} == {
        key: (2, 1) if key[1] in blocks else (1, 0) for key in logs}
    # rank1(9) at 1/6 and both block games each have one warm optimum that
    # is not certified unique
    assert {key: c["finish"] for key, c in logs.items()} == {
        key: int(key[1] in (("rank1", 9),) + blocks) for key in logs}


def test_early_stop_picks_the_exhaustive_argmin(monkeypatch):
    # the search stops at its first score-0 cell. Shifted by 1, no score
    # is 0, so the same search solves every cell; its argmin must be the
    # same cell, since 0 is the least score and ties go to the earliest
    # cell
    grid_search = approx_module._grid_search
    solve_rows = StandardForm.solve_rows
    solved = []
    runs = []

    def count(form, rhs, cost):
        solved.append(rhs)
        return solve_rows(form, rhs, cost)

    def both(game, factor_rows, axes, cell_cost, score, cap=None):
        del solved[:]
        early = grid_search(game, factor_rows, axes, cell_cost, score, cap)
        stopped = len(solved)
        del solved[:]
        full = grid_search(game, factor_rows, axes, cell_cost,
                           lambda *args: score(*args) + 1, cap)
        assert full == (early[0] + 1, early[1])
        runs.append((stopped, len(solved), early[0] == 0))
        return early

    monkeypatch.setattr(StandardForm, "solve_rows", count)
    monkeypatch.setattr(approx_module, "_grid_search", both)
    block = block_game(rank1_family(2), rank1_family(3))
    half = Fraction(1, 2)
    approx_absolute(rank1_family(5), Fraction(1, 10))
    approx_relative(rank1_family(4), Fraction(1, 4))
    approx_absolute(block, half)
    approx_relative(block, half)
    approx_relative(REL2, half, decomp=REL2_DECOMP)
    approx_absolute(NEG, half)
    rng = random.Random(18)
    for _ in range(4):
        # a random 4 x 4 game whose payoff sum is the positive u v^T
        a = random_matrix(rng, 4, 4, -99, 99)
        u, v = ([Fraction(rng.randint(1, 9)) for _ in range(4)]
                for _ in range(2))
        game = BimatrixGame(a, [[ui * vj - e for e, vj in zip(row, v)]
                                for row, ui in zip(a, u)])
        approx_absolute(game, Fraction(1, 4))
        approx_relative(game, half, decomp=RankFactorization(
            (4, 4), ((tuple(u), tuple(v)),)))
    assert len(runs) == 14
    # a search stops only at a score-0 cell, and a grid with no such cell
    # is searched in full
    for stopped, cells, exact in runs:
        assert stopped == cells or (exact and stopped < cells)
    assert sum(stopped < cells for stopped, cells, _ in runs) >= 8
    assert sum(not exact for _, _, exact in runs) >= 3


def _pair(u, v):
    return (tuple(Fraction(e) for e in u), tuple(Fraction(e) for e in v))


# a rank-2 game with a positive two-pair decomposition of a + b
REL2_DECOMP = RankFactorization(
    shape=(3, 3),
    pairs=(_pair((1, 2, 3), (2, 1, 1)), _pair((2, 1, 1), (1, 1, 3))),
)
REL2 = BimatrixGame([[3, 0, 1], [1, 2, 0], [0, 1, 4]],
                    [[1, 3, 6], [4, 1, 5], [7, 3, 2]])


def test_relative_contract_with_explicit_decomposition():
    for d, eps in ((2, Fraction(1, 2)), (3, Fraction(1, 4))):
        g = rank1_family(d)
        decomp = RankFactorization(
            shape=(d, d),
            pairs=(_pair(range(2, 2 * d + 1, 2), range(2, 2 * d + 1, 2)),),
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
    c = np.array([[0, 0], [4, 8]], dtype=object)
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
            shape=(3, 3), pairs=(_pair((2, 4, 6), (2, 4, 6)),)))
    with pytest.raises(ValueError):
        approx_relative(g, Fraction(1, 2), decomp=RankFactorization(
            shape=(2, 2), pairs=(_pair((1, 2), (1, 2)),)))
    with pytest.raises(TypeError, match="got float$"):
        approx_relative(g, Fraction(1, 2), decomp=RankFactorization(
            shape=(2, 2), pairs=(((2.0, 4.0), (2.0, 4.0)),)))
    zero = BimatrixGame([[0]], [[0]])
    fivezeros = RankFactorization(
        shape=(1, 1), pairs=tuple(_pair((0,), (0,)) for _ in range(5)))
    # five factors, each a one-cell axis: one cell LP, no rank guard
    assert approx_relative(zero, Fraction(1, 2), decomp=fivezeros).loss == 0


def test_rank_factorization_refuses_pairs_off_its_shape():
    # c = [[1, 2], [1, 2]]: a u of one entry would broadcast in matrix()
    g = BimatrixGame([[1, 0], [0, 1]], [[0, 2], [1, 1]])
    for pair in (_pair((1,), (1, 2)), _pair((1, 1), (1,)),
                 _pair((1, 1, 1), (1, 2)), _pair((1, 1), (1, 2, 0))):
        with pytest.raises(ValueError,
                           match="^pair vectors do not match the shape$"):
            RankFactorization((2, 2), (_pair((1, 1), (1, 2)), pair))
    # a shape with no rows or no columns has no matrix a game file can hold
    for shape in ((0, 3), (2, 0)):
        with pytest.raises(ValueError, match="^matrix must have at least "
                                             "one row and one column$"):
            RankFactorization(shape, ())
    decomp = RankFactorization((2, 2), (_pair((1, 1), (1, 2)),))
    rep = approx_relative(g, Fraction(1, 4), decomp=decomp)
    assert rep == approx_relative(g, Fraction(1, 4))


def test_nonnegative_follows_the_pairs():
    g = rank1_family(2)
    assert rank_factorize(g.c).nonnegative
    # (-u)(-v)^T reconstructs a + b, but its pairs are negative
    flipped = RankFactorization(shape=(2, 2),
                                pairs=(_pair((-4, -8), (-1, -2)),))
    assert np.array_equal(flipped.matrix(), g.c)
    assert not flipped.nonnegative
    with pytest.raises(ValueError, match="entrywise nonnegative"):
        approx_relative(g, Fraction(1, 2), decomp=flipped)
