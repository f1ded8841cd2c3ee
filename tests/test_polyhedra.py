"""Best-response polyhedra: vertex census, labels, and degeneracy detection."""

import copy
import pickle
import random
from fractions import Fraction
from hashlib import sha256

import pytest

from rankgames import (
    BimatrixGame,
    CapExceededError,
    PolyhedronVertex,
    block_game,
    build_polyhedra,
    enumerate_equilibria,
    enumerate_vertices,
    identity_game,
    is_exact_equilibrium,
    is_nondegenerate,
    polyhedra,
    rank1_family,
)

from helpers import (
    brute_force_bases,
    brute_force_vertices,
    dictionary_rows,
    ineqs,
    oracle_game_strategies,
    reference_equilibria,
    reference_vertex_order,
    reference_walk_start,
    relabelled_q_list,
    two_sided_nondegenerate,
    two_sided_vertex_lists,
)

# an all-ones payoff row side makes every row a best response
FLAT = BimatrixGame([[1, 1], [1, 1]], [[1, 0], [0, 1]])
# a = [[3, 0], [0, 1]] / 2 and b^T = [[3, 0], [0, 1]] / 3: equal integer
# rows over different denominators, so P and Q are different polytopes
SCALED_TRANSPOSE = BimatrixGame([[Fraction(3, 2), 0], [0, Fraction(1, 2)]],
                                [[1, 0], [0, Fraction(1, 3)]])


def test_label_layout():
    g = rank1_family(3)
    p, q = build_polyhedra(g)
    assert p.side == "P" and q.side == "Q"
    assert p.strategy_len == q.strategy_len == 3
    assert p.nonneg_labels == frozenset({1, 2, 3})
    assert p.br_labels == frozenset({4, 5, 6})
    assert q.br_labels == frozenset({1, 2, 3})
    assert q.nonneg_labels == frozenset({4, 5, 6})


def test_rows_and_labels_of_an_asymmetric_game():
    # b is not a^T, so building P from b rather than b^T (or Q from a^T)
    # changes the rows
    g = BimatrixGame([[1, 2, 0], [3, -1, 2]], [[0, 4, 1], [2, 1, 3]])
    p, q = build_polyhedra(g)
    assert ineqs(p).tolist() == [
        [-1, 0, 0], [0, -1, 0], [0, 2, -1], [4, 1, -1], [1, 3, -1]]
    assert ineqs(q).tolist() == [
        [1, 2, 0, -1], [3, -1, 2, -1],
        [-1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0]]
    assert all(type(e) is Fraction for poly in (p, q) for e in ineqs(poly).flat)
    assert (p.strategy_len, q.strategy_len) == (2, 3)
    assert p.labels == q.labels == (1, 2, 3, 4, 5)
    assert (p.nonneg_labels, p.br_labels) == ({1, 2}, {3, 4, 5})
    assert (q.br_labels, q.nonneg_labels) == ({1, 2}, {3, 4, 5})


def test_polyhedra_compare_and_hash_by_their_game():
    g = BimatrixGame([[1, 2, 0], [3, -1, 2]], [[0, 4, 1], [2, 1, 3]])
    same = BimatrixGame([["1", "2", 0], [3, "-1", 2]],
                        [[0, 4, 1], [2, 1, "6/2"]])
    other = BimatrixGame([[1, 2, 0], [3, -1, 2]], [[0, 4, 1], [2, 1, 4]])
    p, q = build_polyhedra(g)
    assert (p, q) == build_polyhedra(same)
    assert hash(p) == hash(build_polyhedra(same)[0])
    assert hash(q) == hash(build_polyhedra(same)[1])
    assert len({p, q, *build_polyhedra(same)}) == 2
    p_other, q_other = build_polyhedra(other)
    assert p != p_other and q == q_other
    assert p != q


def _check_start(poly):
    # the reference rows, over every slack, restricted to the nonbasic
    # slacks in _start_tableau's slot order, are the start rows integer
    # for integer
    rows, basic, nonbasic = polyhedra._start_tableau(poly)
    want_rows, want_basic = reference_walk_start(poly)
    assert basic == want_basic
    assert sorted(basic + nonbasic) == list(range(len(poly.labels)))
    assert rows == dictionary_rows(want_rows, nonbasic)
    first = [row[0] for row in poly.payoff]
    return first.count(max(first)) > 1


@pytest.mark.parametrize("game", [
    BimatrixGame([[2, 2, -1, 2]], [[3, 0, 1, 3]]),
    BimatrixGame([[1], [3], [3], ["-1/2"]], [[0], [2], ["2/3"], [2]]),
    BimatrixGame([[0, 0], [0, 0]], [[0, 0], [0, 0]]),
    rank1_family(4),
    identity_game(3),
], ids=["1x4", "4x1", "zero", "rank1-4", "identity-3"])
def test_start_tableau_matches_the_reference(game):
    for poly in build_polyhedra(game):
        _check_start(poly)


@pytest.mark.parametrize("kind", ["rational", "degenerate"])
def test_start_tableau_matches_the_reference_on_drawn_games(kind):
    # the rows written down from the payoff rows must be the rows the
    # coordinate pivots leave, on ties for the start row r* too
    hypothesis = pytest.importorskip("hypothesis")
    ties = []

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(oracle_game_strategies(hypothesis.strategies)[kind])
    def check(game):
        for poly in build_polyhedra(game):
            ties.append(_check_start(poly))

    check()
    assert sum(ties) >= 30


def test_frozen_vertex_oracle_d2():
    g = rank1_family(2)
    _, q = build_polyhedra(g)
    got = {(v.point, v.binding) for v in enumerate_vertices(q)}
    f = Fraction
    want = {
        ((f(0), f(1), f(8)), frozenset({2, 3})),
        ((f(1, 2), f(1, 2), f(9, 2)), frozenset({1, 2})),
        ((f(1), f(0), f(2)), frozenset({1, 4})),
    }
    assert got == want


def test_vertex_census_formula():
    for d in range(2, 11):
        for poly in build_polyhedra(rank1_family(d)):
            verts = enumerate_vertices(poly)
            assert len(verts) == d * (d * d + 5) // 6
            # census splits into d single-support and sum k(d-k) double-support
            supports = [sum(1 for e in v.point[:d] if e != 0) for v in verts]
            assert supports.count(1) == d
            assert supports.count(2) == sum(k * (d - k) for k in range(1, d))
            assert supports.count(1) + supports.count(2) == len(verts)


def test_at_most_two_best_responses_per_vertex():
    for d in range(2, 5):
        g = rank1_family(d)
        p, q = build_polyhedra(g)
        for poly in (p, q):
            for v in enumerate_vertices(poly):
                assert len(v.binding & poly.br_labels) <= 2


def test_vertices_lie_on_their_binding_rows():
    g = rank1_family(3)
    _, q = build_polyhedra(g)
    for v in enumerate_vertices(q):
        for label, row in zip(q.labels, ineqs(q)):
            lhs = sum(r * e for r, e in zip(row, v.point))
            assert lhs <= 0
            assert (label in v.binding) == (lhs == 0)


def test_vertices_copy_pickle_and_refuse_assignment():
    # walked vertices copy before their point and binding are built, and a
    # constructed vertex with both given
    f = Fraction
    made = PolyhedronVertex((f(1, 2), f(1, 2), f(9, 2)), {1, 2})
    vertices = [*enumerate_vertices(build_polyhedra(identity_game(2))[0]),
                made]
    copies = [(copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v)))
              for v in vertices]
    for v, others in zip(vertices, copies):
        for other in others:
            assert other == v and v == other and hash(other) == hash(v)
            assert (other.coords, other.tight) == (v.coords, v.tight)
            assert (other.point, other.binding) == (v.point, v.binding)
        for name, value in (("point", v.point), ("tight", 0), ("other", 1)):
            with pytest.raises(AttributeError, match=(
                    f"^PolyhedronVertex is immutable: cannot set {name}$")):
                setattr(v, name, value)
    assert made.coords == ((1, 2), (1, 2), (9, 2)) and made.tight == 0b11
    # a vertex is never equal to a non-vertex, and its repr shows its
    # point and binding
    assert made != made.point and made != 1
    assert repr(made) == ("PolyhedronVertex(point=(Fraction(1, 2), "
                          "Fraction(1, 2), Fraction(9, 2)), "
                          "binding=frozenset({1, 2}))")


def test_nondegeneracy_detection():
    for d in range(2, 5):
        assert is_nondegenerate(rank1_family(d))
    assert is_nondegenerate(identity_game(3))
    assert not is_nondegenerate(FLAT)


def test_nondegeneracy_check_is_guarded():
    # the check walks the vertices, so the walk's MAX_WORK guard holds
    with pytest.raises(CapExceededError, match="above the bound 4096"):
        is_nondegenerate(identity_game(13))


@pytest.mark.parametrize("game", [
    BimatrixGame([[0, 0], [0, 0]], [[0, 0], [0, 0]]),
    FLAT,
    BimatrixGame([[3, 3, 1], [0, 0, 2]], [[1, 1, 0], [2, 2, 4]]),
    block_game(identity_game(2), rank1_family(2)),
], ids=["zero", "flat", "duplicated-columns", "block"])
def test_walk_matches_brute_force_on_degenerate_games(game):
    for poly in build_polyhedra(game):
        assert enumerate_vertices(poly) == brute_force_vertices(poly)


def test_walk_matches_brute_force_on_drawn_games():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def games(draw):
        m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        # entries this small make ties, and so degenerate vertices, frequent
        grid = st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                        min_size=m, max_size=m)
        return BimatrixGame(draw(grid), draw(grid))

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(games())
    def check(game):
        nondegenerate = True
        for poly in build_polyhedra(game):
            vertices = brute_force_vertices(poly)
            assert enumerate_vertices(poly) == vertices
            # the definition: no vertex has more best responses than support
            nondegenerate &= all(
                len(v.binding & poly.br_labels) <= len(v.support)
                for v in vertices
            )
        assert is_nondegenerate(game) == nondegenerate

    check()


def test_walk_matches_brute_force_on_rational_games():
    # entries p/q with q up to 7 reach the lcm scaling of the integer rows,
    # which integer payoffs never do
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entries = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 7))

    @st.composite
    def games(draw):
        m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        grid = st.lists(st.lists(entries, min_size=n, max_size=n),
                        min_size=m, max_size=m)
        return BimatrixGame(draw(grid), draw(grid))

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(games())
    def check(game):
        for poly in build_polyhedra(game):
            assert enumerate_vertices(poly) == brute_force_vertices(poly)

    check()


@pytest.mark.parametrize("kind", ["rational", "degenerate"])
def test_walk_order_matches_the_fraction_sort(kind):
    # the walk sorts its vertices by comparing int pairs; the Fraction
    # points sorted as tuples must give the same order, points and labels
    hypothesis = pytest.importorskip("hypothesis")
    degenerate = []

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(oracle_game_strategies(hypothesis.strategies)[kind])
    def check(game):
        for poly in build_polyhedra(game):
            walked = enumerate_vertices(poly)
            reference = reference_vertex_order(poly)
            assert ([(v.point, v.binding) for v in walked]
                    == [(v.point, v.binding) for v in reference])
            assert walked == reference
            for v in walked:
                assert all(type(e) is Fraction for e in v.point)
                assert len(v.binding) == v.tight.bit_count()
                assert v.support == tuple(
                    i for i, e in enumerate(v.strategy) if e > 0)
            degenerate.append(any(len(v.binding) > poly.strategy_len
                                  for v in walked))

    check()
    # ties on degenerate vertices must be in the sample of both kinds
    assert sum(degenerate) >= 30


def _walked_bases(monkeypatch, poly):
    """The bases the vertex walk visits: it makes one pivot per basis after
    the first."""
    calls = []
    pivot = polyhedra.pivot

    def counting(rows, r, col):
        calls.append(None)
        pivot(rows, r, col)

    with monkeypatch.context() as patch:
        patch.setattr(polyhedra, "pivot", counting)
        vertices = enumerate_vertices(poly)
    return vertices, len(calls) + 1


def _repeats_a_row(poly):
    rows = [tuple(row) for row in ineqs(poly).tolist()]
    return len(set(rows)) < len(rows)


@pytest.mark.parametrize("game, tests, bases, digest", [
    (identity_game(5), 80, 31,
     "386f40783d3888b1bd5933f9e572a8d884242b856e161c34f91c33577ea7d424"),
    (rank1_family(7), 224, 63,
     "60151c54171d79d32a5075c8f8bd554ac1820d4cc34bbe30901ea0cde0c6e7a6"),
    (identity_game(9), 2304, 511,
     "c312c5785ee9f2a41312e5846d406c02f7518dab86e87bd4e91e23aa7fced0f5"),
], ids=["identity5", "rank1-7", "identity9"])
def test_walk_tests_each_edge_from_one_end(monkeypatch, game, tests, bases,
                                           digest):
    # Every basis of these P walks is nondegenerate, so each edge between
    # two of them is ratio-tested from the end walked first only: about
    # half the min_ratio_rows calls of testing it from both ends (155, 441
    # and 4599). The skipped tests could only lead to seen bases, so the
    # bases walked and the vertices, down to their int pairs, are pinned
    # as a walk that tests both ends gives them.
    calls = []
    min_ratio_rows = polyhedra.min_ratio_rows
    monkeypatch.setattr(polyhedra, "min_ratio_rows",
                        lambda *args: calls.append(None)
                        or min_ratio_rows(*args))
    vertices, walked = _walked_bases(monkeypatch, build_polyhedra(game)[0])
    assert (len(calls), walked, len(vertices)) == (tests, bases, bases)
    assert sha256("\n".join(repr((v.coords, v.tight))
                            for v in vertices).encode()).hexdigest() == digest


def test_walk_returns_each_shared_point_once(monkeypatch):
    # In Q of this game y = e1 with payoff 1 binds both best-response rows
    # and y2 >= 0, so three of the four feasible bases share that point.
    # The walk keys vertices by their tight rows: it visits every basis and
    # returns the point once, with all three labels.
    poly = build_polyhedra(BimatrixGame([[1, 0], [1, 1]],
                                        [[1, 2], [1, 0]]))[1]
    vertices, bases = _walked_bases(monkeypatch, poly)
    assert vertices == brute_force_vertices(poly)
    assert [v.binding for v in vertices] == [{2, 3}, {1, 2, 4}]
    assert len({v.point for v in vertices}) == len(vertices) == 2
    assert bases == len(list(brute_force_bases(poly))) == 4


def test_walk_follows_every_tied_row(monkeypatch):
    # Rows tied at the minimum ratio each give a basis of the vertex the
    # pivot reaches, and the walk pivots into all of them. On the games
    # below, none with a repeated row, it so visits exactly the feasible
    # bases the brute force finds. (Repeated rows split a vertex's bases
    # into classes no pivot joins: each side of the 2x2 zero game has 4
    # feasible bases, and the walk visits 2.) In P of this game x = e1 is degenerate: x2 >= 0 and
    # both best-response rows bind there. Its basis {x2 >= 0, column 2} is
    # reached only from e2, where x2 >= 0 and column 1 tie on the edge
    # back to e1, so a walk that follows only the first tied row visits 3
    # bases.
    poly = build_polyhedra(BimatrixGame([[0, 0], [1, 0]], [[0, 0], [0, 1]]))[0]
    vertices, bases = _walked_bases(monkeypatch, poly)
    assert vertices == brute_force_vertices(poly)
    # labels 1 and 2 are x1 >= 0 and x2 >= 0, 3 and 4 the two columns
    assert [{poly.labels[r] for r in rows} for rows, _, _ in
            brute_force_bases(poly)] == [{1, 4}, {2, 3}, {2, 4}, {3, 4}]
    assert bases == 4

    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    degenerate = []

    @st.composite
    def games(draw):
        m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        grid = st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n),
                        min_size=m, max_size=m)
        return BimatrixGame(draw(grid), draw(grid))

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(games())
    def check(game):
        for poly in build_polyhedra(game):
            if _repeats_a_row(poly):
                continue
            feasible = list(brute_force_bases(poly))
            vertices, bases = _walked_bases(monkeypatch, poly)
            assert vertices == brute_force_vertices(poly)
            assert bases == len(feasible)
            degenerate.append(bases > len(vertices))

    check()
    assert sum(degenerate) >= 30  # the sample must have degenerate vertices


def test_symmetric_games_relabel_p_for_q(monkeypatch):
    """On a drawn symmetric game (b = a^T, entries in -2..2, so many are
    degenerate), _vertex_lists gives P's list only, and P's list
    relabelled for Q (relabelled_q_list) equals the walked Q list, vertex
    for vertex and in order; enumeration and the nondegeneracy check
    agree with the two-sided path. A degenerate vertex may be reached
    from another basis on the two paths, so the lists are compared by ==,
    on point and tight mask, never by coords. Games that are not symmetric,
    drawn with entries in 0..2, are compared with the two-sided path too:
    there a walked Q vertex often pairs with several P vertices, so
    enumeration reads its rows and products from its cache."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    degenerate, other_pairs, shared_q = [], [], []
    walked = []
    walk = polyhedra.enumerate_vertices
    monkeypatch.setattr(polyhedra, "enumerate_vertices",
                        lambda poly: walked.append(poly.side) or walk(poly))

    @st.composite
    def symmetric_games(draw):
        n = draw(st.integers(1, 5))
        a = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                          min_size=n, max_size=n))
        return BimatrixGame(a, [list(col) for col in zip(*a)])

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.one_of(symmetric_games(),
                                oracle_game_strategies(st)["degenerate"]))
    def check(game):
        lists = tuple(polyhedra._vertex_lists(game))
        want = two_sided_vertex_lists(game)
        symmetric = polyhedra._symmetric(game)
        if symmetric:
            q_list = relabelled_q_list(want[0], game.m)
            assert lists == want[:1] and q_list == want[1]
            other_pairs.append([v.coords for v in q_list]
                               != [v.coords for v in want[1]])
        else:
            assert lists == want
        walked.clear()
        eqset = enumerate_equilibria(game)
        reports, components = reference_equilibria(game)
        assert eqset.reports == tuple(reports)
        assert eqset.components == components
        ys = [r.profile.y for r in reports]
        shared_q.append(walked == ["P", "Q"] and len(set(ys)) < len(ys))
        nondegenerate = two_sided_nondegenerate(game)
        assert is_nondegenerate(game) == nondegenerate
        degenerate.append(symmetric and not nondegenerate)

    check()
    assert sum(degenerate) >= 50 and sum(other_pairs) >= 20
    assert sum(shared_q) >= 20


# a = I and b = 2 I: P and Q have the same vertices, but not the same rows
IDENTITY_TWIN = BimatrixGame(identity_game(5).a, 2 * identity_game(5).b)
# Q's vertex y = e1 is degenerate, tight at both rows of a and at y2 >= 0,
# and is the partner of two nondegenerate P vertices: the two equilibria,
# each found by a face solve, are one component
SHARED_Q = BimatrixGame([[1, 0], [1, 1]], [[1, 2], [1, 0]])
# P's vertex x = e1 is degenerate, tight at both columns' rows
DEGENERATE_P = BimatrixGame([[0, 0], [1, 0]], [[0, 0], [0, 1]])


@pytest.mark.parametrize("game, listed, enumerated", [
    (identity_game(3), ["P"], ["P"]),
    (rank1_family(4), ["P"], ["P"]),
    (block_game(identity_game(2), rank1_family(2)), ["P"], ["P"]),
    (SCALED_TRANSPOSE, ["P", "Q"], ["P"]),
    (BimatrixGame(rank1_family(3).a, 2 * rank1_family(3).b), ["P", "Q"],
     ["P"]),
    (IDENTITY_TWIN, ["P", "Q"], ["P"]),
    (SHARED_Q, ["P", "Q"], ["P"]),
    (DEGENERATE_P, ["P", "Q"], ["P", "Q"]),
], ids=["identity3", "rank1-4", "block", "scaled-transpose", "b-2a-transpose",
        "identity5-twin", "shared-q", "degenerate-p"])
def test_sides_walked_by_the_lists_and_by_enumeration(monkeypatch, game,
                                                      listed, enumerated):
    # _vertex_lists walks Q unless the game is symmetric; enumeration walks
    # Q only when a P vertex cannot solve its complementary face
    want_lists = two_sided_vertex_lists(game)
    want_reports, want_components = reference_equilibria(game)
    want_nondegenerate = two_sided_nondegenerate(game)
    walked = []
    walk = polyhedra.enumerate_vertices

    def recording(poly):
        walked.append(poly.side)
        return walk(poly)

    monkeypatch.setattr(polyhedra, "enumerate_vertices", recording)
    if listed == ["P"]:
        # a symmetric game's one list serves Q, relabelled
        assert tuple(polyhedra._vertex_lists(game)) == want_lists[:1]
        assert relabelled_q_list(want_lists[0], game.m) == want_lists[1]
    else:
        assert tuple(polyhedra._vertex_lists(game)) == want_lists
    assert walked == listed
    walked.clear()
    eqset = enumerate_equilibria(game)
    assert walked == enumerated
    assert eqset.reports == tuple(want_reports)
    assert eqset.components == want_components
    assert is_nondegenerate(game) == want_nondegenerate


def test_shared_q_vertex_links_its_equilibria():
    eqset = enumerate_equilibria(SHARED_Q)
    assert [r.profile.y for r in eqset.reports] == [(1, 0), (1, 0)]
    assert eqset.components == ((0, 1),)


def test_one_sided_enumeration_solves_a_game_whose_q_walk_is_refused(
        monkeypatch):
    # a random 4x40 game has a few dozen P vertices and more Q vertices
    # than the walk's bound admits: the lists are refused at Q, and so is
    # is_nondegenerate, which walks Q once P's vertices are all
    # nondegenerate; enumeration never walks Q; every equilibrium passes
    # the certificate and an independent loss evaluation
    rng = random.Random(33)
    rows = [[rng.randint(-999, 999) for _ in range(40)] for _ in range(8)]
    game = BimatrixGame(rows[:4], rows[4:])
    message = "bases in a vertex walk, above the bound 4096$"
    with pytest.raises(CapExceededError, match=message):
        tuple(polyhedra._vertex_lists(game))
    with pytest.raises(CapExceededError, match=message):
        is_nondegenerate(game)
    walked = []
    walk = polyhedra.enumerate_vertices
    monkeypatch.setattr(polyhedra, "enumerate_vertices",
                        lambda poly: walked.append(poly.side) or walk(poly))
    eqset = enumerate_equilibria(game)
    assert walked == ["P"]
    assert len(eqset.reports) == 11
    assert len(set(eqset.profiles)) == 11
    for report in eqset.reports:
        assert report.loss == 0 and is_exact_equilibrium(game, report.profile)
        assert len(report.support1) == len(report.support2)


def test_one_sided_walk_keeps_the_refusal():
    # one walk of P counts the bases a walk of Q would, so identity_game(12)
    # is refused with the message of the two-sided path
    message = "^4097 or more bases in a vertex walk, above the bound 4096$"
    for run in (enumerate_equilibria, is_nondegenerate):
        with pytest.raises(CapExceededError, match=message):
            run(identity_game(12))
