"""Equilibrium enumeration, components, support oracle, and zero-sum solving."""

import copy
import json
import pickle
import random
from collections import Counter
from fractions import Fraction

import pytest

from rankgames import (
    BimatrixGame,
    CapExceededError,
    MixedProfile,
    PolyhedronVertex,
    approx_absolute,
    block_game,
    block_hierarchy_count,
    enumerate_by_supports,
    enumerate_equilibria,
    identity_game,
    loss,
    make_report,
    rank1_family,
    solve_zero_sum,
)

from rankgames import cli, enumeration, errors, games, polyhedra
from rankgames.gamefiles import save_game

from helpers import (
    connected_component_count,
    oracle_game_strategies,
    profile_set,
    random_game,
    reference_cover_pairs,
    reference_equilibria,
    two_sided_vertex_lists,
)

ZERO = BimatrixGame([[0, 0], [0, 0]], [[0, 0], [0, 0]])
# every row is a best response to every y
FLAT = BimatrixGame([[1, 1], [1, 1]], [[1, 0], [0, 1]])


def closed_form_rank1_set(d):
    f = Fraction
    pures = {MixedProfile(tuple(f(int(i == t)) for i in range(d)),
                          tuple(f(int(i == t)) for i in range(d)))
             for t in range(d)}
    half = f(1, 2)
    mixes = {MixedProfile(tuple(half if i in (t, t + 1) else f(0) for i in range(d)),
                          tuple(half if i in (t, t + 1) else f(0) for i in range(d)))
             for t in range(d - 1)}
    return pures | mixes


def test_rank1_counts_and_closed_form():
    for d in (2, 3, 4, 10):
        eqset = enumerate_equilibria(rank1_family(d))
        assert len(eqset.reports) == 2 * d - 1
        assert profile_set(eqset.reports) == closed_form_rank1_set(d)
        assert all(r.loss == 0 and r.kind == "exact" for r in eqset.reports)


def test_reports_sorted_lexicographically():
    eqset = enumerate_equilibria(rank1_family(4))
    keys = [(r.profile.x, r.profile.y) for r in eqset.reports]
    assert keys == sorted(keys)


def test_rank1_components_are_singletons():
    for d in (2, 3, 4):
        g = rank1_family(d)
        eqset = enumerate_equilibria(g)
        assert eqset.component_count == 2 * d - 1
        assert all(len(comp) == 1 for comp in eqset.components)
        assert connected_component_count(g, eqset) == 2 * d - 1


def test_identity_game_counts():
    for d in (2, 3):
        eqset = enumerate_equilibria(identity_game(d))
        assert len(eqset.reports) == 2 ** d - 1
        # no two distinct equilibria are exchangeable here
        assert eqset.component_count == 2 ** d - 1


def test_zero_game_single_component():
    g = BimatrixGame([[0, 0], [0, 0]], [[0, 0], [0, 0]])
    eqset = enumerate_equilibria(g)
    assert len(eqset.reports) == 4  # all pure vertex pairs
    assert eqset.component_count == 1


@pytest.mark.parametrize("game", [
    ZERO,
    identity_game(3),
    block_game(ZERO, identity_game(2)),
    block_game(FLAT, rank1_family(2)),
], ids=["zero", "identity3", "block-zero-identity2", "block-flat-rank1-2"])
def test_components_match_the_exact_audit(game):
    # enumerate_equilibria links equilibria that share an x or a y; the
    # audit re-checks every cross pair with the exact loss. The zero and
    # flat blocks give components with several extreme equilibria.
    eqset = enumerate_equilibria(game)
    assert eqset.component_count == connected_component_count(game, eqset)


def test_components_on_drawn_degenerate_games():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    several = []

    @st.composite
    def games(draw):
        m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        # 0/1 and -1..1 payoffs make degenerate games with large components
        entries = st.integers(draw(st.sampled_from([0, -1])), 1)
        matrix = st.lists(st.lists(entries, min_size=n, max_size=n),
                          min_size=m, max_size=m)
        return BimatrixGame(draw(matrix), draw(matrix))

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(games())
    def check(game):
        eqset = enumerate_equilibria(game)
        assert eqset.component_count == connected_component_count(game, eqset)
        component_of = {i: c for c, comp in enumerate(eqset.components)
                        for i in comp}
        assert sorted(component_of) == list(range(len(eqset.reports)))
        # each shared-x and each shared-y class lies in one component
        for side in ("x", "y"):
            classes = {}
            for i, profile in enumerate(eqset.profiles):
                classes.setdefault(getattr(profile, side), set()).add(
                    component_of[i])
            assert all(len(c) == 1 for c in classes.values())
        # the pairs of the all-pairs cover test, in its order; no two share
        # a profile, so none is dropped or repeated
        covers = reference_cover_pairs(game)
        assert [(p.x, p.y) for p in eqset.profiles] == covers
        assert len(set(covers)) == len(covers)
        xs = [x for x, _ in covers]
        several.append(len(xs) > len(set(xs)))

    check()
    # the order check needs P vertices with more than one partner
    assert sum(several) >= 30


@pytest.mark.parametrize("game", [
    *(identity_game(d) for d in range(1, 9)),
    *(rank1_family(d) for d in range(2, 9)),
    block_game(identity_game(2), rank1_family(3)),
    block_game(FLAT, identity_game(2)),
    block_game(ZERO, rank1_family(2)),
], ids=[*(f"identity{d}" for d in range(1, 9)),
        *(f"rank1-{d}" for d in range(2, 9)),
        "block-identity2-rank1-3", "block-flat-identity2",
        "block-zero-rank1-2"])
def test_pairing_matches_reference_cover_pairs(game):
    # the posting bitsets give exactly the pairs of the all-pairs cover
    # test, in its order (P vertex, then Q vertex)
    assert ([(p.x, p.y) for p in enumerate_equilibria(game).profiles]
            == reference_cover_pairs(game))


@pytest.mark.parametrize("kind", ["rational", "degenerate"])
def test_reports_match_the_fraction_reference(kind):
    # profiles built from the vertices' integer rows give the reports,
    # supports and components of the frozenset pairing on Fraction profiles
    hypothesis = pytest.importorskip("hypothesis")
    mixed = []

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(oracle_game_strategies(hypothesis.strategies)[kind])
    def check(game):
        eqset = enumerate_equilibria(game)
        reports, components = reference_equilibria(game)
        assert eqset.reports == tuple(reports)
        assert eqset.components == components
        for got, want in zip(eqset.reports, reports):
            assert all(type(e) is Fraction
                       for e in (*got.profile.x, *got.profile.y))
            assert (got.support1, got.support2) == (
                tuple(i for i, e in enumerate(want.profile.x) if e > 0),
                tuple(j for j, e in enumerate(want.profile.y) if e > 0))
        mixed.append(any(len(r.support1) > 1 for r in reports))

    check()
    assert sum(mixed) >= 20  # the sample must have mixed equilibria


def test_one_sided_enumeration_matches_the_two_sided_reference(monkeypatch):
    # a game that is not symmetric walks P, solves the complementary face
    # of each nondegenerate P vertex, and walks Q only for a vertex that
    # cannot: the reports and components are the two-sided reference's on
    # rank-1-sum draws (b = u v^T - a, like the benchmark's random games,
    # often nondegenerate), on 0..2-entry draws (often degenerate) and on
    # draws with rational entries (a common denominator above 1)
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    reached, paths, partners = Counter(), set(), []
    solve_rows, walk = enumeration._solve_rows, polyhedra.enumerate_vertices
    face_partner = enumeration._face_partner
    monkeypatch.setattr(enumeration, "_solve_rows",
                        lambda rows: paths.add("face") or solve_rows(rows))
    monkeypatch.setattr(polyhedra, "enumerate_vertices",
                        lambda poly: paths.add(poly.side) or walk(poly))

    def partnering(*args):
        found = face_partner(*args)
        partners.extend(found or ())
        return found

    monkeypatch.setattr(enumeration, "_face_partner", partnering)

    @st.composite
    def rank1_sum_games(draw):
        m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        a = draw(st.lists(st.lists(st.integers(-9, 9), min_size=n,
                                   max_size=n), min_size=m, max_size=m))
        u = draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
        v = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
        return BimatrixGame(a, [[ui * vj - e for vj, e in zip(v, row)]
                                for ui, row in zip(u, a)])

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.one_of(rank1_sum_games(),
                                *oracle_game_strategies(st).values()))
    def check(game):
        paths.clear()
        partners.clear()
        eqset = enumerate_equilibria(game)
        reached.update(paths)
        reports, components = reference_equilibria(game)
        assert eqset.reports == tuple(reports)
        assert eqset.components == components
        # a face solve's partner is a vertex of Q: its point, payoff
        # included, and its tight mask, and it comes with the products of
        # a's rows against its y and their maximum
        a_rows, da = game._int_form[:2]
        q_list = two_sided_vertex_lists(game)[1]
        for q_tight, (ys, ay, best) in partners:
            assert ay == [sum(e * f for e, f in zip(row, ys))
                          for row in a_rows] and best == max(ay)
            point = [Fraction(e, ys[-1]) for e in ys[:-1]]
            point.append(Fraction(best, da * ys[-1]))
            binding = {r + 1 for r in range(q_tight.bit_length())
                       if q_tight >> r & 1}
            assert PolyhedronVertex(point, binding) in q_list

    check()
    # each path must be reached often: 236-267 face-solving draws and
    # 78-125 Q-walking draws over eight seeds
    assert reached["face"] >= 150 and reached["Q"] >= 60


def test_block_game_hierarchy_example():
    g = block_game(identity_game(2), rank1_family(3))
    eqset = enumerate_equilibria(g)
    assert len(eqset.reports) == 23
    assert len(eqset.reports) >= block_hierarchy_count(5, 3) == 15


@pytest.mark.parametrize("game", [
    rank1_family(5), identity_game(4),
    block_game(identity_game(2), rank1_family(3)),
], ids=["rank1-5", "identity4", "block-identity2-rank1-3"])
def test_each_equilibrium_is_evaluated_once(game, monkeypatch, tmp_path, capsys):
    """The walk's certificate evaluates each equilibrium once, from
    products computed once per vertex, and the reports are built from
    that evaluation. Each game here is symmetric, so P vertex i's products
    serve as Q vertex i's: one per distinct strategy of the equilibria.
    Reading reports and profiles, twice each, computes no product and no
    evaluation, and the default solve, which encodes every report, makes
    the same calls as the enumeration."""
    calls = Counter()

    def counting(name):
        original = getattr(games, name)

        def count(*args):
            calls[name] += 1
            return original(*args)
        return count

    names = ("_products", "_evaluate_products", "_evaluate_rows")
    for name in names:
        counter = counting(name)
        for module in (games, enumeration):
            monkeypatch.setattr(module, name, counter, raising=False)
    eqset = enumerate_equilibria(game)
    want = calls.copy()
    for _ in range(2):
        reports, profiles = eqset.reports, eqset.profiles
    assert calls == want
    strategies = {p.x for p in profiles} | {p.y for p in profiles}
    assert [calls[name] for name in names] == [
        len(strategies), len(reports), 0]
    assert len(reports) == len(profiles) > 0
    path = tmp_path / "game.txt"
    save_game(path, game)
    calls.clear()
    assert cli.main(["solve", str(path)]) == 0
    assert calls == want
    assert json.loads(capsys.readouterr().out)["results"]["count"] == len(
        reports)
    monkeypatch.undo()
    for report, profile in zip(reports, profiles):
        assert report.profile is profile
        assert report == make_report(game, profile)


def test_symmetric_game_builds_one_vertex_list(monkeypatch):
    # identity_game(6) is symmetric: P's walk makes its 63 vertices and no
    # Q vertex object is made; each of its 63 equilibria pairs P vertex i
    # with Q vertex i, which share one row and one product vector
    made, products = [], []
    walked, product = PolyhedronVertex._walked.__func__, games._products
    monkeypatch.setattr(PolyhedronVertex, "_walked", classmethod(
        lambda cls, *args: made.append(None) or walked(cls, *args)))
    monkeypatch.setattr(enumeration, "_products",
                        lambda *args: products.append(None) or product(*args))
    eqset = enumerate_equilibria(identity_game(6))
    assert len(made) == len(products) == len(eqset.reports) == 63
    assert eqset.component_count == 63


def _off_by_one(*args):
    """_evaluate_products with the loss's numerator raised by 1."""
    (gap, den), *rest = games._evaluate_products(*args)
    return ((gap + 1, den), *rest)


def test_certificate_refuses_a_nonzero_gap(monkeypatch, tmp_path, capsys):
    # a cover pair whose integer gap is not 0 is a bug in the pairing:
    # the walk raises, and every command that enumerates exits 5
    monkeypatch.setattr(enumeration, "_evaluate_products", _off_by_one)
    message = "binding-cover pair failed the loss check"
    game = rank1_family(3)
    with pytest.raises(RuntimeError, match=message):
        enumerate_equilibria(game)
    path = tmp_path / "game.txt"
    save_game(path, game)
    for argv in (["solve", str(path), "--mode", "components"],
                 ["components", str(path)], ["solve", str(path)]):
        assert cli.main(argv) == cli.EXIT_INTERNAL
        streams = capsys.readouterr()
        assert message in streams.err and streams.out == ""


def test_equilibrium_set_copies_and_refuses_assignment():
    # copies carry the rows and any views already built; both give the
    # views of a fresh enumeration
    game = block_game(identity_game(2), rank1_family(3))
    for read_first in (False, True):
        eqset = enumerate_equilibria(game)
        if read_first:
            eqset.reports
        copies = [copy.copy(eqset), copy.deepcopy(eqset),
                  pickle.loads(pickle.dumps(eqset))]
        want = enumerate_equilibria(game)
        for other in (eqset, *copies):
            assert (other.reports, other.profiles, other.components) == (
                want.reports, want.profiles, want.components)
            assert other.component_count == want.component_count
    for name in ("reports", "profiles", "components", "component_count",
                 "_found", "other"):
        with pytest.raises(AttributeError):
            setattr(eqset, name, ())


def test_cap_guard():
    # identity(13) walks past MAX_WORK bases a side; rank1(13), with the
    # same m + n = 26, walks a few hundred
    with pytest.raises(CapExceededError, match="above the bound 4096"):
        enumerate_equilibria(identity_game(13))
    assert len(enumerate_equilibria(rank1_family(13)).reports) == 25


def test_base_bound_boundary(monkeypatch):
    # rank1(7) walks 63 bases a side; the guard's last count is d = 8 plus
    # the 62 bases seen before the last one: 70
    monkeypatch.setattr(errors, "MAX_WORK", 70)
    assert len(enumerate_equilibria(rank1_family(7)).reports) == 13
    monkeypatch.setattr(errors, "MAX_WORK", 69)
    with pytest.raises(CapExceededError, match="above the bound 69"):
        enumerate_equilibria(rank1_family(7))


def test_support_pair_bound():
    # comb(16, 8) - 1 = 12869 support pairs: refused before any solve
    solves = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "solve_linear_system",
                   lambda *args: solves.append(args))
        with pytest.raises(CapExceededError, match="12869 support pairs"):
            enumerate_by_supports(rank1_family(8))
    assert solves == []
    # comb(14, 7) - 1 = 3431 pairs are admitted
    assert len(enumerate_by_supports(rank1_family(7))) == 13


def test_support_oracle_agrees_spot_checks():
    for game in (rank1_family(3), identity_game(3),
                 block_game(identity_game(2), rank1_family(2))):
        assert set(enumerate_by_supports(game)) == \
            profile_set(enumerate_equilibria(game).reports)


def test_support_oracle_profiles_are_equilibria_even_when_degenerate():
    rng = random.Random(64)
    for _ in range(15):
        g = random_game(rng, rng.randint(2, 3), rng.randint(2, 3), -3, 3)
        for p in enumerate_by_supports(g):
            assert loss(g, p) == 0


def test_solve_zero_sum_matching_pennies():
    g = BimatrixGame([[1, -1], [-1, 1]], [[-1, 1], [1, -1]])
    rep = solve_zero_sum(g)
    half = Fraction(1, 2)
    assert rep.profile == MixedProfile((half, half), (half, half))
    assert rep.loss == 0
    assert rep.payoff1 == 0 and rep.payoff2 == 0


def test_solve_zero_sum_dominated_column():
    g = BimatrixGame([[1, 0], [0, 0]], [[-1, 0], [0, 0]])
    rep = solve_zero_sum(g)
    assert rep.loss == 0
    assert rep.payoff1 == 0
    assert rep.profile.y[1] == 1  # column 2 keeps the row player at value 0


def test_solve_zero_sum_tied_game_golden():
    # several optimal pairs: the pin fixes which extreme equilibrium the
    # rank-0 grid cell picks
    g = BimatrixGame([[1, 0, 0], [-1, 0, 0]], [[-1, 0, 0], [1, 0, 0]])
    rep = solve_zero_sum(g)
    assert (rep.profile, rep.loss, rep.payoff1) == (
        MixedProfile((1, 0), (0, 1, 0)), 0, 0)


def test_solve_zero_sum_builds_one_report(monkeypatch):
    """The winner's report is evaluated once, by approx_absolute: its loss
    0 is certified there, since the target eps |a+b| is 0, and the report
    is make_report's with kind 'exact'. (The grid scores its one cell
    through approx's own reference to _evaluate_rows, not counted here.)"""
    calls = []
    evaluate = games._evaluate_rows

    def counting(*args):
        calls.append(None)
        return evaluate(*args)

    monkeypatch.setattr(games, "_evaluate_rows", counting)
    for a in ([[1, -1], [-1, 1]], [[1, 0], [0, 0]], [[1, 0, 0], [-1, 0, 0]],
              [[0, "1/2"], [3, -2], [1, 1]]):
        game = BimatrixGame(a, [[-Fraction(e) for e in row] for row in a])
        calls.clear()
        rep = solve_zero_sum(game)
        assert len(calls) == 1
        assert rep == make_report(game, rep.profile)
        assert (rep.kind, rep.parameter, rep.loss) == ("exact", None, 0)


def test_solve_zero_sum_on_tied_games():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def games(draw):
        m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        # entries this small make ties, and so several optimal pairs, frequent
        a = draw(st.lists(st.lists(st.integers(-1, 1), min_size=n, max_size=n),
                          min_size=m, max_size=m))
        return BimatrixGame(a, [[-e for e in row] for row in a])

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(games())
    def check(game):
        rep = solve_zero_sum(game)
        assert rep.loss == 0
        eqset = enumerate_equilibria(game)
        assert rep.profile in eqset.profiles
        assert {r.payoff1 for r in eqset.reports} == {rep.payoff1}
        # both solve the same rank-0 cell LP
        assert approx_absolute(game, Fraction(1, 2)).profile == rep.profile

    check()


def test_solve_zero_sum_rejects_nonzero_sum():
    with pytest.raises(ValueError):
        solve_zero_sum(rank1_family(2))
