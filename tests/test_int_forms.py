"""Integer forms against the Fraction path they replace: games read from a
game file, profiles made from integer rows, the report's number text, and
the Fraction views the enumeration and grid paths never build."""

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest

from rankgames import (
    BimatrixGame,
    MixedProfile,
    approx_absolute,
    approx_relative,
    block_game,
    enumerate_equilibria,
    enumeration,
    find_additive_decomposition,
    format_game_text,
    identity_game,
    linear_program,
    make_report,
    matrix_rank,
    parse_game_text,
    perturb_game,
    rank1_family,
    solve_linear_system,
    solve_lp,
)
import rankgames
from rankgames import cli, linalg, polyhedra
from rankgames.gamefiles import _pair_text, encode_report, load_game
from rankgames.linalg import int_row, rank_factorize
from rankgames.lp import LpSolution

from helpers import reference_game_text


def _spellings(value):
    """The ways a drawn game file writes value: p/q, unreduced, signed,
    zero-padded and, for a decimal with at most 4 places, as one."""
    n, d = value.numerator, value.denominator
    out = [str(value), f"{3 * n}/{3 * d}", f"{'+' if n >= 0 else '-'}{abs(n)}/{d}"]
    if d == 1:
        out += [f"+{n}" if n >= 0 else str(n), f"{'-' if n < 0 else ''}00{abs(n)}"]
    if 10**4 % d == 0:
        scaled = abs(n) * (10**4 // d)
        out.append(f"{'-' if n < 0 else ''}{scaled // 10**4}.{scaled % 10**4:04d}")
    return out


def test_loaded_games_match_the_fraction_path():
    """A game read from a file has the integer form, a, b, c, norm_c and
    factorization of BimatrixGame built from the same Fractions, and
    builds none of a, b and c before one is read."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entries = st.one_of(
        st.builds(Fraction, st.integers(-20, 20),
                  st.sampled_from([1, 1, 2, 3, 4, 5, 6, 8, 12])),
        st.builds(Fraction, st.integers(-10**25, 10**25), st.integers(1, 10**9)),
        st.just(Fraction(0)))

    @st.composite
    def cases(draw):
        m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        matrix = st.lists(st.lists(entries, min_size=n, max_size=n),
                          min_size=m, max_size=m)
        a, b = draw(matrix), draw(matrix)
        lines = ["# drawn", f"{m} {n}"]
        for mat in (a, b):
            for row in mat:
                lines.append(" ".join(draw(st.sampled_from(_spellings(e)))
                                      for e in row))
        return a, b, "\n".join(lines) + "\n"

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(cases())
    def check(case):
        a, b, text = case
        game, ref = parse_game_text(text), BimatrixGame(a, b)
        assert (game.shape, game.m, game.n) == (ref.shape, ref.m, ref.n)
        assert not {"a", "b", "c"} & set(vars(game))
        assert game._int_form == ref._int_form
        assert game == ref
        # the writer reads integer rows and writes str of each Fraction
        assert format_game_text(game) == reference_game_text(ref)
        for name in ("a", "b", "c"):
            got, want = getattr(game, name), getattr(ref, name)
            assert np.array_equal(got, want) and got.shape == want.shape
            assert not got.flags.writeable
            assert all(type(e) is Fraction for e in got.flat)
        # each reduced row of c is int_row of c's Fraction row, so both
        # factorizations take the same pivots
        assert game._c_rows == [int_row(row) for row in ref.c.tolist()]
        assert game.norm_c == max(abs(e) for e in ref.c.flat)
        assert type(game.norm_c) is Fraction
        assert game.factorization == rank_factorize(ref.c)
        assert all(type(e) is Fraction for pair in game.factorization.pairs
                   for vec in pair for e in vec)

    check()


def test_profiles_match_across_constructors():
    """MixedProfile.from_int_rows and MixedProfile(x, y) give equal
    profiles, with equal hashes, reprs, supports and report text, and
    refuse the same rows with the same errors."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def rows(draw):
        # numerators that mostly sum to the denominator, times a common
        # factor, which from_int_rows need not see reduced
        size = draw(st.integers(0, 4))
        nums = draw(st.lists(st.integers(-2, 9), min_size=size, max_size=size))
        den = sum(nums) if draw(st.booleans()) else draw(st.integers(1, 12))
        if den <= 0:
            den = 1
        k = draw(st.integers(1, 3))
        return [k * e for e in nums] + [k * den]

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(rows(), rows())
    def check(x_row, y_row):
        x, y = ([Fraction(e, row[-1]) for e in row[:-1]] for row in (x_row, y_row))
        try:
            want = MixedProfile(x, y)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{exc}$"):
                MixedProfile.from_int_rows(x_row, y_row)
            return
        got = MixedProfile.from_int_rows(x_row, y_row)
        assert got == want and want == got
        assert hash(got) == hash(want) and repr(got) == repr(want)
        assert (got.support1, got.support2) == (want.support1, want.support2)
        assert got.x == tuple(x) and all(type(e) is Fraction for e in got.x)
        game = BimatrixGame([[0] * len(y)] * len(x), [[0] * len(y)] * len(x))
        fresh = MixedProfile.from_int_rows(x_row, y_row)
        encoded = encode_report(make_report(game, fresh))
        assert encoded["x"] == [str(e) for e in want.x]
        assert encoded["y"] == [str(e) for e in want.y]
        for other in (copy.copy(got), copy.deepcopy(got),
                      pickle.loads(pickle.dumps(got))):
            assert other == want and hash(other) == hash(want)
        with pytest.raises(AttributeError,
                           match="^MixedProfile is immutable: cannot set x$"):
            got.x = want.x

    check()


def test_hot_paths_leave_the_fraction_views_unbuilt(monkeypatch, tmp_path,
                                                    capsys):
    """Enumerating a loaded game's equilibria and encoding its reports
    builds no vertex's point or binding and no profile's x or y, the
    components mode builds no report and no profile at all, the absolute
    grid's winning profile has neither x nor y, and the relative grid
    checks a decomposition it is passed without building c: these paths
    read the integer forms only."""
    walked = []
    walk = polyhedra.enumerate_vertices

    def recording(poly):
        vertices = walk(poly)
        walked.extend(vertices)
        return vertices

    monkeypatch.setattr(polyhedra, "enumerate_vertices", recording)
    reports = []
    for game in (rank1_family(5), block_game(identity_game(2), rank1_family(3))):
        eqset = enumerate_equilibria(parse_game_text(format_game_text(game)))
        for report in eqset.reports:
            encode_report(report)
        reports += eqset.reports
    assert walked and reports
    assert not any({"point", "binding"} & set(vars(v)) for v in walked)
    assert not any({"x", "y"} & set(vars(r.profile)) for r in reports)

    def refuse(*args, **kwargs):
        raise AssertionError("the components mode built a report or profile")

    for game in (identity_game(5), block_game(identity_game(2), rank1_family(3))):
        path = tmp_path / "game.txt"
        path.write_text(format_game_text(game))
        with monkeypatch.context() as patch:
            for name in ("make_report", "_report"):
                patch.setattr(enumeration, name, refuse, raising=False)
            patch.setattr(MixedProfile, "from_int_rows", classmethod(refuse))
            assert cli.main(["solve", str(path), "--mode", "components"]) == 0
            assert cli.main(["components", str(path)]) == 0
            game = load_game(path)
            eqset = enumerate_equilibria(game)
            cli._components_results(game, eqset)
        assert not {"reports", "profiles"} & set(vars(eqset))
        assert len(eqset.reports) == sum(map(len, eqset.components))
    capsys.readouterr()
    game = parse_game_text(format_game_text(rank1_family(4)))
    report = approx_absolute(game, Fraction(1, 10))
    assert report.loss == 0
    assert not {"x", "y"} & set(vars(report.profile))
    decomp = rank1_family(4).factorization
    game = parse_game_text(format_game_text(rank1_family(4)))
    assert approx_relative(game, Fraction(1, 4), decomp=decomp).loss == 0
    assert "c" not in vars(game)


def test_kernel_entries_build_no_fraction_arrays(monkeypatch):
    """The exact kernels, the LP, the additive split and the perturbation
    read Fraction input as rows (linalg._fraction_rows), and a passed
    decomposition is checked on integer rows: with linalg._array, the one
    builder of the package's object arrays, patched to raise in every
    module that imports it, each still gives its answer."""
    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction array was built")

    # c = u u^T for u = (2, 4, 6); c' is c with its 36 lowered by 1
    half = np.diag([0, 0, Fraction(1, 2)])
    want = BimatrixGame(rank1_family(3).a - half, rank1_family(3).b - half)
    c_prime = [[4, 8, 12], [8, 16, 24], [12, 24, 35]]
    builder = linalg._array
    for module in vars(rankgames).values():
        if getattr(module, "_array", None) is builder:
            monkeypatch.setattr(module, "_array", refuse)
    pert = perturb_game(rank1_family(3), c_prime)
    assert pert.eps == Fraction(1, 36) and pert.perturbed == want
    matrix = [[1, "1/2", 0], [2, 1, 0], [0, 0, Fraction(3, 4)]]
    assert matrix_rank(matrix) == 2
    fact = rank_factorize(matrix)
    assert fact.rank == 2
    assert [[sum(u[i] * v[j] for u, v in fact.pairs) for j in range(3)]
            for i in range(3)] == [[Fraction(e) for e in row] for row in matrix]
    assert solve_linear_system([[2, 1], [1, "-1/3"]], [3, 0]) == (
        Fraction(3, 5), Fraction(9, 5))
    assert solve_linear_system([[1, 2], [2, 4]], [1, 2]) is None
    # the box 0 <= x_1 <= 1 becomes a bound row, and the optimum sits on it
    assert solve_lp(linear_program(
        [-1, -1], [[1, 2], [3, 1]], ["<=", "<="], [4, 6], upper=[None, 1])
    ) == LpSolution("optimal", (Fraction(5, 3), Fraction(1)), Fraction(-8, 3))
    assert find_additive_decomposition([[1, 2], [3, 4]]) == ((0, 2), (1, 2))
    assert find_additive_decomposition([[1, 2], [3, 5]]) is None
    game = rank1_family(3)
    decomp = rank_factorize([[4, 8, 12], [8, 16, 24], [12, 24, 36]])
    assert approx_relative(game, Fraction(1, 4), decomp=decomp).loss == 0


def test_pair_text_equals_str_of_the_fraction():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    nums = st.one_of(st.integers(-50, 50), st.just(0),
                     st.integers(-10**40, 10**40))
    dens = st.one_of(st.integers(1, 60), st.integers(1, 10**30))

    @hypothesis.settings(max_examples=500, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(nums, dens, st.integers(1, 10**6))
    def check(n, d, k):
        for num, den in ((n, d), (n * k, d * k)):
            assert _pair_text(num, den) == str(Fraction(num, den))

    check()
    assert [_pair_text(*p) for p in [(0, 7), (-6, 4), (10**50, 1), (-3, 1)]] == [
        "0", "-3/2", "1" + "0" * 50, "-3"]
