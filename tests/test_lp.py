"""Exact simplex solver: known optima, degenerate cases, and a vertex oracle."""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from rankgames import (
    block_game,
    linear_program,
    rank1_family,
    solve_lp,
    solve_linear_system,
)
from rankgames import lp as lp_module
from rankgames.linalg import int_row
from rankgames.lp import LpSolution, StandardForm

from helpers import (
    NEG,
    SHARED,
    dictionary_rows,
    full_rows,
    random_game,
    reference_grid_cells,
    reference_grid_lp,
    reference_lex_optimum,
    reference_price_out,
    reference_start,
)


def test_known_optimum_bounded():
    # classic production LP: opt at (2, 6) with value -36
    lp = linear_program(
        objective=[-3, -5],
        lhs=[[1, 0], [0, 2], [3, 2]],
        senses=["<=", "<=", "<="],
        rhs=[4, 12, 18],
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.x == (Fraction(2), Fraction(6))
    assert sol.objective_value == Fraction(-36)


def test_mixed_senses_and_fractions():
    lp = linear_program(
        objective=[1, 1],
        lhs=[[1, 2], [1, 0]],
        senses=["=", ">="],
        rhs=[4, 1],
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.x == (Fraction(1), Fraction(3, 2))
    assert sol.objective_value == Fraction(5, 2)

    lp = linear_program(["1/3", 1], [[1, 1]], [">="], ["5/2"])
    sol = solve_lp(lp)
    assert sol.objective_value == Fraction(5, 6)
    assert sol.x == (Fraction(5, 2), Fraction(0))


def test_infeasible_detected():
    lp = linear_program([1], [[1]], ["<="], [-1])
    assert solve_lp(lp).status == "infeasible"
    # contradictory bounds
    lp = linear_program([1], [], [], [], lower=[2], upper=[1])
    assert solve_lp(lp).status == "infeasible"


def test_unbounded_detected():
    lp = linear_program([-1], [], [], [])
    assert solve_lp(lp).status == "unbounded"
    lp = linear_program([1], [], [], [], lower=[None])
    assert solve_lp(lp).status == "unbounded"


def test_free_and_upper_bounded_variables():
    lp = linear_program([1], [[1]], [">="], [-3], lower=[None])
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.x == (Fraction(-3),)

    lp = linear_program([-1], [], [], [], upper=[7])
    sol = solve_lp(lp)
    assert sol.x == (Fraction(7),)
    assert sol.objective_value == Fraction(-7)


def test_solution_entries_are_fractions():
    lp = linear_program([1, 2, 3], [[1, 1, 1]], [">="], [1])
    sol = solve_lp(lp)
    assert all(isinstance(e, Fraction) for e in sol.x)
    assert isinstance(sol.objective_value, Fraction)


def test_validation_errors():
    with pytest.raises(ValueError):
        linear_program([], [], [], [])
    with pytest.raises(ValueError):
        linear_program([1], [[1, 2]], ["<="], [1])
    with pytest.raises(ValueError):
        linear_program([1], [[1]], ["<"], [1])
    with pytest.raises(ValueError):
        linear_program([1], [[1]], ["<=", "<="], [1])
    with pytest.raises(ValueError):
        linear_program([1], [[1]], ["<="], [1], lower=[0, 0])


def test_lhs_is_tuple_rows_of_fractions():
    lp = linear_program([1, 0], [[1, "1/2"], (2, Fraction(1, 3))],
                        ["<=", "="], [1, 2], upper=[3, None])
    red, _ = lp_module._reduce_bounds(lp)
    assert lp.lhs == ((1, Fraction(1, 2)), (2, Fraction(1, 3)))
    # the box 0 <= x_0 <= 3 adds one bound row after the LP's rows
    assert red.lhs == lp.lhs + ((1, 0),)
    for rows in (lp.lhs, red.lhs):
        assert type(rows) is tuple
        assert all(type(row) is tuple for row in rows)
        assert all(type(e) is Fraction for row in rows for e in row)
    assert linear_program([1], [], [], []).lhs == ()


def _random_lp(rng, nvars, nrows, box):
    rows = [[rng.randint(-4, 4) for _ in range(nvars)] for _ in range(nrows)]
    senses = [rng.choice(["<=", ">=", "="]) for _ in range(nrows)]
    rhs = [rng.randint(-6, 6) for _ in range(nrows)]
    # box row keeps the region bounded so the oracle below is complete
    rows.append([1] * nvars)
    senses.append("<=")
    rhs.append(box)
    objective = [rng.randint(-5, 5) for _ in range(nvars)]
    return linear_program(objective, rows, senses, rhs)


def _brute_force_optimum(lp):
    """Minimum over all basic points: solve every nvars-subset of the
    constraint planes (rows as equalities plus the x_i = 0 planes), keep the
    feasible ones. Complete for bounded regions with all lower bounds 0."""
    nvars = lp.nvars
    planes = []
    for row, rhs in zip(lp.lhs, lp.rhs):
        planes.append((list(row), rhs))
    for i in range(nvars):
        planes.append(([Fraction(int(j == i)) for j in range(nvars)], Fraction(0)))
    best = None
    for subset in combinations(range(len(planes)), nvars):
        x = solve_linear_system([planes[i][0] for i in subset],
                                [planes[i][1] for i in subset])
        if x is None:
            continue
        if any(e < 0 for e in x):
            continue
        ok = True
        for row, sense, rhs in zip(lp.lhs, lp.senses, lp.rhs):
            val = sum(r * e for r, e in zip(row, x))
            if sense == "<=" and val > rhs:
                ok = False
            elif sense == ">=" and val < rhs:
                ok = False
            elif sense == "=" and val != rhs:
                ok = False
            if not ok:
                break
        if not ok:
            continue
        value = sum(c * e for c, e in zip(lp.objective, x))
        if best is None or value < best:
            best = value
    return best


def test_agrees_with_brute_force_vertex_oracle():
    rng = random.Random(411)
    optimal = 0
    for _ in range(60):
        lp = _random_lp(rng, rng.randint(2, 3), rng.randint(2, 4), box=20)
        sol = solve_lp(lp)
        brute = _brute_force_optimum(lp)
        if sol.status == "optimal":
            optimal += 1
            assert brute == sol.objective_value
        else:
            assert sol.status == "infeasible"
            assert brute is None
    assert optimal >= 20  # the sample must actually exercise the solver


def test_rational_lps_agree_with_brute_force_vertex_oracle():
    # coefficients p/q with q up to 7 reach the lcm scaling of the integer
    # rows, which the integer LPs above never do
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def rationals(bound):
        return st.builds(Fraction, st.integers(-bound, bound), st.integers(1, 7))

    @st.composite
    def lps(draw):
        nvars, nrows = draw(st.integers(2, 3)), draw(st.integers(2, 4))
        rows = draw(st.lists(st.lists(rationals(4), min_size=nvars,
                                      max_size=nvars),
                             min_size=nrows, max_size=nrows))
        senses = draw(st.lists(st.sampled_from(["<=", ">=", "="]),
                               min_size=nrows, max_size=nrows))
        rhs = draw(st.lists(rationals(6), min_size=nrows, max_size=nrows))
        # box row keeps the region bounded so the oracle is complete
        return linear_program(
            draw(st.lists(rationals(5), min_size=nvars, max_size=nvars)),
            rows + [[1] * nvars], senses + ["<="], rhs + [20])

    optimal = []

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(lps())
    def check(lp):
        sol = solve_lp(lp)
        brute = _brute_force_optimum(lp)
        if sol.status == "optimal":
            optimal.append(lp)
            assert brute == sol.objective_value
        else:
            assert sol.status == "infeasible"
            assert brute is None

    check()
    assert len(optimal) >= 30  # the sample must actually exercise the solver


def _standard_form(lp):
    """The StandardForm solve_lp builds for a LinearProgram: on the integer
    rows of its bounds' reduction, with a free flag for each variable the
    reduction leaves free."""
    red = lp_module._reduce_bounds(lp)[0]
    return StandardForm([int_row(row) for row in red.lhs], red.senses,
                        [lo is None for lo in red.lower])


def _pairs(rhs):
    return [(b.numerator, b.denominator) for b in rhs]


def _solve(form, lp):
    """form.solve_rows on the right-hand sides and objective of lp's
    bounds' reduction, its pairs made Fractions and the constants added
    back as solve_lp does."""
    red, shift = lp_module._reduce_bounds(lp)
    status, values, value = form.solve_rows(_pairs(red.rhs),
                                            int_row(red.objective))
    if status != "optimal":
        return LpSolution(status, None, None)
    x = tuple(c + s * Fraction(n, d) for (c, s), (n, d) in zip(shift, values))
    return LpSolution(status, x, Fraction(*value) + sum(
        e * c for e, (c, _) in zip(lp.objective, shift)))


def _random_bounds(rng, nvars, rational):
    """Bounds of every kind: a lower bound, an upper bound alone, none, a
    box whose upper bound may lie below its lower bound, and 0."""
    lower, upper = [], []
    for _ in range(nvars):
        lo, up = rng.choice([(rational(3), None), (None, rational(3)),
                             (None, None), (rational(3), rational(4)),
                             (0, None)])
        lower.append(lo)
        upper.append(up)
    return lower, upper


def test_standard_form_rows_match_reference_builder():
    # bounds of every kind: constants shift the rows' right-hand sides, free
    # variables split in two, finite boxes add bound rows, and a crossed
    # box's bound row starts at a negative right-hand side; a >= row is
    # negated so its slack starts basic, and equality rows are pivoted in.
    # The form is built on the reduction solve_lp runs, and its start
    # dictionary must be the reference's, rebuilt from the bounded LP's
    # Fractions
    rng = random.Random(523)

    def rational(bound):
        return Fraction(rng.randint(-bound, bound), rng.randint(1, 3))

    crossed = negative = inconsistent = solved = 0
    for _ in range(120):
        nvars, nrows = rng.randint(1, 4), rng.randint(1, 4)
        lower, upper = _random_bounds(rng, nvars, rational)
        lp = linear_program(
            [rational(5) for _ in range(nvars)],
            [[rational(4) for _ in range(nvars)] for _ in range(nrows)],
            [rng.choice(["<=", ">=", "="]) for _ in range(nrows)],
            [rational(6) for _ in range(nrows)], lower, upper)
        form = _standard_form(lp)
        other = replace(lp, rhs=tuple(rational(6) for _ in range(nrows)))
        assert _standard_form(other).rows == form.rows
        for ref in (lp, other):
            red = lp_module._reduce_bounds(ref)[0]
            start = form._start(_pairs(red.rhs))
            expected = reference_start(ref)
            if expected is None:
                inconsistent += 1
                assert start is None
            else:
                assert start == (_pairs(red.rhs), *expected)
                negative += any(row[-2] < 0 for row in start[1])
        if any(lo is not None and up is not None and up < lo
               for lo, up in zip(lower, upper)):
            crossed += 1
            assert _solve(form, lp).status == "infeasible"
            continue
        # one form serves any number of solves
        assert _solve(form, other) == solve_lp(other)
        assert _solve(form, lp) == solve_lp(lp)
        # the value read off the cost row is the objective at x
        negated = tuple(-c for c in lp.objective)
        for rhs, obj in ((lp.rhs, lp.objective), (other.rhs, lp.objective),
                         (lp.rhs, negated), (other.rhs, negated)):
            sol = _solve(form, replace(lp, rhs=rhs, objective=obj))
            if sol.status == "optimal":
                solved += 1
                assert sol.objective_value == sum(
                    (c * x for c, x in zip(obj, sol.x)), Fraction(0))
    assert crossed >= 10 and negative >= 100 and solved >= 80
    assert inconsistent >= 10


def test_bounds_reduce_to_nonnegative_and_free_variables(monkeypatch):
    # solve_lp on an LP with general bounds is solve_lp on the LP reduced
    # by hand to nonnegative and free variables t: x = lo + t, or up - t
    # with an upper bound alone, a box adding the row t <= up - lo after
    # the LP's rows. The same pivots, in the same order, and the same
    # LpSolution once the constants are added back
    rng = random.Random(2604)

    def rational(bound):
        return Fraction(rng.randint(-bound, bound), rng.randint(1, 4))

    pivots = []
    pivot = lp_module.pivot

    def recorded(rows, r, col):
        pivots.append((r, col))
        pivot(rows, r, col)

    monkeypatch.setattr(lp_module, "pivot", recorded)
    statuses = Counter()
    for _ in range(300):
        nvars, nrows = rng.randint(1, 4), rng.randint(0, 4)
        lower, upper = _random_bounds(rng, nvars, rational)
        rows = [[rational(4) for _ in range(nvars)] for _ in range(nrows)]
        senses = [rng.choice(["<=", ">=", "="]) for _ in range(nrows)]
        rhs = [rational(6) for _ in range(nrows)]
        objective = [rational(5) for _ in range(nvars)]
        lp = linear_program(objective, rows, senses, rhs, lower, upper)

        const = [Fraction(0) if lo is None and up is None else
                 lo if lo is not None else up for lo, up in zip(lower, upper)]
        sign = [-1 if lo is None and up is not None else 1
                for lo, up in zip(lower, upper)]
        hand = linear_program(
            [c * s for c, s in zip(objective, sign)],
            [[a * s for a, s in zip(row, sign)] for row in rows]
            + [[int(i == j) for i in range(nvars)] for j in range(nvars)
               if lower[j] is not None and upper[j] is not None],
            senses + ["<="] * sum(lo is not None and up is not None
                                  for lo, up in zip(lower, upper)),
            [b - sum(a * c for a, c in zip(row, const))
             for row, b in zip(rows, rhs)]
            + [up - lo for lo, up in zip(lower, upper)
               if lo is not None and up is not None],
            lower=[None if lo is None and up is None else 0
                   for lo, up in zip(lower, upper)])
        assert all(up is None for up in hand.upper)

        del pivots[:]
        sol = solve_lp(lp)
        path = pivots[:]
        del pivots[:]
        ref = solve_lp(hand)
        assert path == pivots
        statuses[sol.status] += 1
        if ref.status != "optimal":
            assert sol == ref
            continue
        assert sol == LpSolution(
            "optimal", tuple(c + s * t for c, s, t in zip(const, sign, ref.x)),
            ref.objective_value + sum(e * c for e, c in zip(objective, const)))
    assert min(statuses.values()) >= 30 and len(statuses) == 3


def _named(lp):
    """reference_lex_optimum of the LP a form solves for lp, its bounds'
    reduction, with the constants added back as solve_lp adds them; None
    when a tie-break objective is unbounded."""
    red, shift = lp_module._reduce_bounds(lp)
    ref = reference_lex_optimum(red)
    if ref is None or ref.status != "optimal":
        return ref
    x = tuple(c + s * t for (c, s), t in zip(shift, ref.x))
    return LpSolution("optimal", x, ref.objective_value + sum(
        e * c for e, (c, _) in zip(lp.objective, shift)))


# the absolute grids of the two block games run every cell, and some of
# their warm optima are tied and finish lexicographically; NEG's factor
# rows take negative right-hand sides, SHARED's rows share a factor with
# their denominator, and a relative grid keeps its cost
WARM_GRIDS = [
    ("abs", block_game(rank1_family(2), rank1_family(3)), Fraction(1, 2)),
    ("abs", block_game(rank1_family(3), rank1_family(3)), Fraction(1, 2)),
    ("abs", NEG, Fraction(1, 2)),
    ("abs", SHARED, Fraction(1)),
    ("rel", rank1_family(4), Fraction(1, 4)),
]


def _grid_cells(game, eps, scheme, limit=None):
    """The reference LP of a grid and its cells' LPs, in cell order."""
    lp = reference_grid_lp(game, scheme)
    return lp, [replace(lp, rhs=tuple(rhs), objective=tuple(objective))
                for rhs, objective
                in reference_grid_cells(game, eps, scheme, limit=limit)]


def test_warm_solves_equal_cold_solves(monkeypatch):
    # a form keeps the dictionary of its last optimal solve and re-solves
    # from it. Whatever the form solved before, a result must be
    # solve_lp's, whose fresh form solves once from its start dictionary;
    # it must be the named optimum, the lexicographically greatest optimal
    # point (reference_lex_optimum), whenever that exists, and a solve the
    # warm path hands back (None) restarts from the start dictionary. The
    # sequences are the cells of grids, in product order and shuffled, and
    # random LPs whose right-hand sides and objectives move between solves
    kept = []  # (form, result or None) of each solve from a kept dictionary
    warm, finish = StandardForm._warm, StandardForm._lex_finish
    finishes = []

    def recorded(form, rhs, zrow, start=None):
        result = warm(form, rhs, zrow, start)
        if start is None:
            kept.append((form, result))
        return result

    def counted(form, *args):
        finishes.append(finish(form, *args))
        return finishes[-1]

    monkeypatch.setattr(StandardForm, "_warm", recorded)
    monkeypatch.setattr(StandardForm, "_lex_finish", counted)
    rng = random.Random(3001)

    def solve(form, lp, named=_named):
        finished = len(finishes)
        sol = _solve(form, lp)
        assert sol == solve_lp(lp)
        ref = named(lp)
        if ref is not None:
            assert sol == ref
        if False in finishes[finished:]:
            # the finish found a tie-break objective unbounded
            assert ref is None
        return sol

    grids = []
    for scheme, game, eps in WARM_GRIDS:
        lp, cells = _grid_cells(game, eps, scheme)
        shuffled = rng.sample(cells, len(cells))
        names = {}

        def named(cell):
            key = cell.rhs, cell.objective
            if key not in names:
                names[key] = _named(cell)
            return names[key]

        for order in (cells, shuffled):
            form = _standard_form(lp)
            for cell in order:
                solve(form, cell, named)
            grids.append(Counter("handed back" if r is None else r[0]
                                 for f, r in kept if f is form))
    # no grid cell is handed back: each warm solve ends optimal, at the
    # named optimum, or proves the cell infeasible
    assert not any(grid["handed back"] for grid in grids)
    assert sum(grid["optimal"] for grid in grids) >= 240
    assert sum(grid["infeasible"] for grid in grids) >= 70
    assert len(finishes) >= 15

    def rational(bound):
        return Fraction(rng.randint(-bound, bound), rng.randint(1, 3))

    # random LPs over bounded and free variables: a step moves each
    # right-hand side with probability 1/2, an equality row's with 1/10,
    # which hands the solve back, and keeps the objective half the time.
    # A tie-break objective unbounded on the optimal face hands it back too
    statuses = Counter()
    equality_moves = 0
    del kept[:], finishes[:]
    for _ in range(150):
        nvars, nrows = rng.randint(1, 4), rng.randint(1, 4)
        lower, upper = _random_bounds(rng, nvars, rational)
        senses = [rng.choice(["<=", ">=", "="]) for _ in range(nrows)]
        lp = linear_program(
            [rational(5) for _ in range(nvars)],
            [[rational(4) for _ in range(nvars)] for _ in range(nrows)],
            senses, [rational(6) for _ in range(nrows)], lower, upper)
        form = _standard_form(lp)
        for _ in range(8):
            moved = [rng.random() < (0.1 if sense == "=" else 0.5)
                     for sense in senses]
            equality_moves += any(m and sense == "=" for m, sense in
                                  zip(moved, senses))
            lp = replace(lp, rhs=tuple(
                rational(6) if m else b for m, b in zip(moved, lp.rhs)))
            if rng.random() < 0.5:
                lp = replace(lp, objective=tuple(rational(5)
                                                 for _ in range(nvars)))
            statuses[solve(form, lp).status] += 1
    results = Counter("handed back" if r is None else r[0] for _, r in kept)
    assert min(statuses.values()) >= 150 and len(statuses) == 3
    assert min(results.values()) >= 50 and len(results) == 4
    assert equality_moves >= 80
    # both ends of the finish: a named optimum, and an unbounded tie-break
    assert finishes.count(True) >= 5 and finishes.count(False) >= 10


def test_grid_forms_solve_every_cell_as_solve_lp(monkeypatch):
    # a grid's form solves its first cell from its start dictionary
    # (StandardForm._start), and each later cell from the last optimal
    # dictionary. Each result, the first cell's included, must be
    # solve_lp's, and its optimum the named one (reference_lex_optimum).
    # An infeasible solve keeps the dictionary it found, none at all
    # before the first feasible cell, so each cell up to that one starts
    # from _start. The grids are the block games, whose first cells are
    # infeasible, NEG and SHARED, a relative grid, and drawn games'
    # absolute grids, each run over its first 16 cells
    starts = []
    start = StandardForm._start

    def recorded(form, rhs):
        starts.append(form)
        return start(form, rhs)

    monkeypatch.setattr(StandardForm, "_start", recorded)
    rng = random.Random(3803)
    grids = list(WARM_GRIDS)
    grids += [("abs", random_game(rng, rng.randint(1, 3), rng.randint(1, 3)),
               Fraction(1, rng.randint(1, 3))) for _ in range(60)]
    statuses, firsts = Counter(), Counter()
    for scheme, game, eps in grids:
        lp, cells = _grid_cells(game, eps, scheme, limit=16)
        form = _standard_form(lp)
        feasible = False
        for cell in cells:
            kept = form._kept
            del starts[:]
            got = _solve(form, cell)
            assert got == solve_lp(cell)
            if got.status == "optimal":
                assert got == reference_lex_optimum(cell)
            if got.status == "infeasible":
                assert form._kept is kept
            assert [f for f in starts if f is form] == [form] * (not feasible)
            feasible = feasible or got.status == "optimal"
            statuses[got.status] += 1
        firsts[solve_lp(cells[0]).status] += 1
    assert statuses["optimal"] >= 150 and statuses["infeasible"] >= 250
    assert firsts["infeasible"] >= 15 and firsts["optimal"] >= 30


def test_one_lp_one_optimum():
    # one LP gets one point however it is solved: by solve_lp, by a fresh
    # form, and by one warm form that solved other LPs on the same rows
    # before it. The point is reference_lex_optimum's when that exists,
    # and on the bounded LPs status and value are the vertex oracle's. The
    # LPs are the cells of the WARM_GRIDS grids, which one form per grid
    # solves in shuffled order, and seeded and drawn bounded LPs, each
    # solved after the others drawn on its rows
    rng = random.Random(4201)
    seen = Counter()

    def agree(warm, lp, brute):
        sol = solve_lp(lp)
        assert _solve(_standard_form(lp), lp) == sol
        assert _solve(warm, lp) == sol
        named = reference_lex_optimum(lp)
        if named is not None:
            assert sol == named
        if brute:
            value = _brute_force_optimum(lp)
            assert (sol.status, sol.objective_value) == (
                ("infeasible", None) if value is None else ("optimal", value))
        seen[sol.status, named is not None] += 1

    for scheme, game, eps in WARM_GRIDS:
        lp, cells = _grid_cells(game, eps, scheme)
        warm = _standard_form(lp)
        for cell in rng.sample(cells, len(cells)):
            agree(warm, cell, False)

    def moved(lp, objective, rhs):
        """lp with a new objective and new right-hand sides on its rows,
        the box row's kept."""
        return replace(lp, objective=tuple(map(Fraction, objective)),
                       rhs=tuple(map(Fraction, rhs)) + lp.rhs[-1:])

    for _ in range(40):
        nvars, nrows = rng.randint(2, 3), rng.randint(2, 4)
        lp = _random_lp(rng, nvars, nrows, box=20)
        warm = _standard_form(lp)
        for _ in range(4):
            agree(warm, lp, True)
            lp = moved(lp, [rng.randint(-5, 5) for _ in range(nvars)],
                       [rng.randint(-6, 6) for _ in range(nrows)])

    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def rationals(bound):
        return st.builds(Fraction, st.integers(-bound, bound), st.integers(1, 7))

    @st.composite
    def lps(draw):
        nvars, nrows = draw(st.integers(2, 3)), draw(st.integers(2, 4))
        vector = st.lists(rationals(5), min_size=nvars, max_size=nvars)
        rows = draw(st.lists(st.lists(rationals(4), min_size=nvars,
                                      max_size=nvars),
                             min_size=nrows, max_size=nrows))
        senses = draw(st.lists(st.sampled_from(["<=", ">=", "="]),
                               min_size=nrows, max_size=nrows))
        rhs = st.lists(rationals(6), min_size=nrows, max_size=nrows)
        # box row keeps the region bounded so the oracle is complete
        lp = linear_program(draw(vector), rows + [[1] * nvars],
                            senses + ["<="], draw(rhs) + [20])
        return lp, draw(st.lists(st.tuples(vector, rhs), max_size=3))

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(lps())
    def check(drawn):
        lp, steps = drawn
        warm = _standard_form(lp)
        agree(warm, lp, True)
        for objective, rhs in steps:
            agree(warm, moved(lp, objective, rhs), True)

    check()
    assert seen["optimal", True] >= 220 and seen["infeasible", True] >= 190


def test_start_drops_a_redundant_equality_row():
    # the second equality row is twice the first: the start pivots x_1 in
    # on the first, finds the second with no nonzero column and a
    # right-hand side of 0, and drops it. Its dictionary has one row fewer
    # than the LP, and a form that keeps it solves warm from it
    lp = linear_program([1, -1, 0], [[1, 1, 1], [2, 2, 2], [1, 0, 0]],
                        ["=", "=", "<="], [1, 2, Fraction(1, 2)])
    form = _standard_form(lp)
    start = form._start(_pairs(lp.rhs))
    assert start == (_pairs(lp.rhs), *reference_start(lp))
    assert start[2:] == ([0, 3], [1, 2])
    for cap in (Fraction(1, 2), 0, 2, -1):
        cell = replace(lp, rhs=lp.rhs[:2] + (Fraction(cap),))
        sol = _solve(form, cell)
        assert sol == solve_lp(cell) == reference_lex_optimum(cell)
        assert sol.objective_value == (None if cap < 0 else -1)
        assert len(form._kept[1]) == 3  # two constraint rows and the cost


def test_start_proves_inconsistent_equalities_infeasible():
    # the second equality row is twice the first but for its right-hand
    # side: the start finds it with no nonzero column and a right-hand side
    # of 1, which proves the LP infeasible before any simplex step. A form
    # that kept a dictionary, for consistent rows, hands the solve back and
    # keeps that dictionary
    lp = linear_program([1, 1], [[1, 1], [2, 2]], ["=", "="], [1, 3])
    form = _standard_form(lp)
    assert form._start(_pairs(lp.rhs)) is None
    assert reference_start(lp) is None
    assert _solve(form, lp) == solve_lp(lp) == LpSolution("infeasible", None,
                                                           None)
    assert _brute_force_optimum(lp) is None
    consistent = replace(lp, rhs=(Fraction(1), Fraction(2)))
    assert _solve(form, consistent).objective_value == 1
    kept = form._kept
    assert _solve(form, lp).status == "infeasible"
    assert form._kept is kept


def test_equality_change_restarts_from_start(monkeypatch):
    # a kept dictionary cannot take a new right-hand side on an equality
    # row, which has no slack: the warm path hands the solve back, and it
    # runs from the start dictionary for the new right-hand sides
    calls = []
    begin, warm = StandardForm._start, StandardForm._warm

    def started(form, rhs):
        calls.append((form, "start", rhs))
        return begin(form, rhs)

    def warmed(form, rhs, zrow, start=None):
        result = warm(form, rhs, zrow, start)
        calls.append((form, "warm", start is not None,
                      None if result is None else result[0]))
        return result

    monkeypatch.setattr(StandardForm, "_start", started)
    monkeypatch.setattr(StandardForm, "_warm", warmed)
    lp = linear_program([-1, -2, 1], [[1, 1, 1], [1, -1, 0]], ["=", "<="],
                        [2, 1])
    form = _standard_form(lp)
    assert _solve(form, lp) == solve_lp(lp)
    del calls[:]
    # the <= row's right-hand side moves warm, the equality row's restarts
    for rhs in ((2, 0), (3, 0)):
        cell = replace(lp, rhs=tuple(map(Fraction, rhs)))
        assert _solve(form, cell) == reference_lex_optimum(cell)
    assert [c[1:] for c in calls if c[0] is form] == [
        ("warm", False, "optimal"), ("warm", False, None),
        ("start", [(3, 1), (0, 1)]), ("warm", True, "optimal")]


def test_unbounded_tie_break_ends_where_it_stands():
    # min 5/2 x_1 s.t. -2 x_1 = 1, x_1 and x_2 free: x_1 = -1/2, and the
    # optimal face is unbounded in x_2, so the tie-break "maximize x_2" is
    # unbounded and the LP has no named optimum. From the start dictionary
    # the finish ends where it stands; a form that kept a dictionary from
    # other objectives hands the solve back, and restarts, to the same
    # point
    lp = linear_program([Fraction(5, 2), 0], [[-2, 0]], ["="], [1],
                        lower=[None, None])
    assert reference_lex_optimum(lp) is None
    fresh = _solve(_standard_form(lp), lp)
    assert fresh == solve_lp(lp) == LpSolution(
        "optimal", (Fraction(-1, 2), Fraction(0)), Fraction(-5, 4))
    form = _standard_form(lp)
    for objective in ([0, 0], [1, 1], [-3, 0], [0, -1], [5, 0]):
        other = replace(lp, objective=tuple(map(Fraction, objective)))
        assert _solve(form, other) == solve_lp(other)
        assert _solve(form, lp) == fresh


def test_infeasible_first_cell_starts_the_next_from_start(monkeypatch):
    # the first cell of the rank1(2)/rank1(3) block game's absolute grid is
    # infeasible: its solve keeps no dictionary, so the second cell starts
    # from the start dictionary for its own right-hand sides
    starts = []
    start = StandardForm._start

    def recorded(form, rhs):
        starts.append((form, rhs))
        return start(form, rhs)

    monkeypatch.setattr(StandardForm, "_start", recorded)
    lp, cells = _grid_cells(block_game(rank1_family(2), rank1_family(3)),
                            Fraction(1, 2), "abs", limit=2)
    form = _standard_form(lp)
    assert _solve(form, cells[0]).status == "infeasible"
    assert form._kept is None
    got = _solve(form, cells[1])
    assert got == solve_lp(cells[1]) == reference_lex_optimum(cells[1])
    assert [rhs for f, rhs in starts if f is form] == [
        _pairs(cell.rhs) for cell in cells]
    assert form._kept is not None


def test_warm_solves_reach_the_named_optimum(monkeypatch):
    # bounded LPs with whole faces of optima: a zero objective, one in
    # -1..1, or one that is a multiple of a row, and now and then a
    # duplicated column. Each is solved from the kept dictionaries of other
    # solves on the same rows, with other objectives and other right-hand
    # sides on the inequality rows, so each solve is warm, starts from
    # another dictionary, and must return the named optimum
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    finish = StandardForm._lex_finish
    seen = Counter()

    def counted(form, *args):
        seen["finish"] += 1
        return finish(form, *args)

    monkeypatch.setattr(StandardForm, "_lex_finish", counted)

    @st.composite
    def lps(draw):
        nvars, nrows = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        entries = st.lists(st.integers(-3, 3), min_size=nvars,
                           max_size=nvars)
        rows = [draw(entries) for _ in range(nrows)]
        kind = draw(st.sampled_from(["zero", "small", "row"]))
        if kind == "zero":
            objective = [0] * nvars
        elif kind == "small":
            objective = draw(st.lists(st.integers(-1, 1), min_size=nvars,
                                      max_size=nvars))
        else:
            objective = [draw(st.sampled_from([-2, -1, 1])) * e
                         for e in rows[0]]
        if draw(st.booleans()):
            j = draw(st.integers(0, nvars - 1))
            rows = [row + [row[j]] for row in rows]
            objective.append(objective[j])
            nvars += 1
        senses = [draw(st.sampled_from(["<=", ">=", "="])) for _ in rows]
        free = draw(st.lists(st.booleans(), min_size=nvars, max_size=nvars))
        # every variable lies in [-3, 3] if free and in [0, 3] if not
        box = [[int(i == j) for i in range(nvars)] for j in range(nvars)]
        rows += box + [row for row, f in zip(box, free) if f]
        senses += ["<="] * nvars + [">="] * sum(free)
        rhs = [draw(st.integers(-2, 4)) for _ in range(nrows)]
        rhs += [3] * nvars + [-3] * sum(free)
        lp = linear_program(objective, rows, senses, rhs,
                            lower=[None if f else 0 for f in free])
        starts = draw(st.lists(st.tuples(
            st.lists(st.integers(-2, 2), min_size=nvars, max_size=nvars),
            st.lists(st.integers(-2, 4), min_size=nrows, max_size=nrows)),
            min_size=1, max_size=3))
        return lp, starts

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(lps())
    def check(drawn):
        lp, starts = drawn
        named = reference_lex_optimum(lp)
        assert named is not None
        chain = _standard_form(lp)
        for objective, rhs in starts:
            # a start keeps the equality rows' right-hand sides
            rhs = [b if sense == "=" else r for sense, b, r
                   in zip(lp.senses, lp.rhs, rhs)] + list(lp.rhs[len(rhs):])
            start = replace(lp, objective=tuple(map(Fraction, objective)),
                            rhs=tuple(map(Fraction, rhs)))
            # a fresh form keeps the start's cold dictionary; the chain
            # keeps the last optimal one of all its solves
            for form in (_standard_form(lp), chain):
                status = _solve(form, start).status
                if form._kept is not None:
                    seen[status, named.status] += 1
                    assert _solve(form, lp) == named

    check()
    # a warm solve proves the LP infeasible or reaches its named optimum,
    # from optimal and from infeasible starts, and many finish
    # lexicographically
    assert seen["optimal", "optimal"] >= 300
    assert seen["optimal", "infeasible"] >= 50
    assert seen["infeasible", "optimal"] >= 5
    assert seen["finish"] >= 200


def test_price_out_matches_pricing_every_basic_column(monkeypatch):
    # _price_out folds in only the rows of the basic variables with a
    # nonzero cost, in one row combination over the nonbasic slots; the
    # reference pivots on every basic column of the full tableau, whose
    # other basic columns are unit columns no pivot changes. Restricted to
    # the nonbasic columns, the reference rows must be the dictionary rows
    # integer for integer, for the LP's cost and for each tie-break
    # objective of the lexicographic finish
    rng = random.Random(617)
    price_out = lp_module._price_out
    calls = []

    def checked(tableau, zrow, basis, nonbasic):
        expected = full_rows(tableau, basis, nonbasic)
        reference_price_out(expected, zrow, basis)
        price_out(tableau, zrow, basis, nonbasic)
        assert tableau == dictionary_rows(expected, nonbasic)
        calls.append(None)

    monkeypatch.setattr(lp_module, "_price_out", checked)
    per_lp = []
    for _ in range(120):
        calls.clear()
        solve_lp(_random_lp(rng, rng.randint(2, 4), rng.randint(2, 4), box=20))
        per_lp.append(len(calls))
    # an infeasible LP prices out nothing; a feasible one prices out its
    # cost once the dual steps reach a feasible basis, and a tied optimum
    # one tie-break objective per variable its finish maximizes
    assert per_lp.count(0) >= 45 and per_lp.count(1) >= 45
    assert sum(calls > 1 for calls in per_lp) >= 5


def test_row_permutation_keeps_objective():
    rng = random.Random(916)
    for _ in range(25):
        lp = _random_lp(rng, rng.randint(2, 4), rng.randint(2, 4), box=15)
        sol = solve_lp(lp)
        order = list(range(len(lp.lhs)))
        rng.shuffle(order)
        shuffled = linear_program(
            lp.objective,
            [list(lp.lhs[i]) for i in order],
            [lp.senses[i] for i in order],
            [lp.rhs[i] for i in order],
        )
        sol2 = solve_lp(shuffled)
        assert sol2.status == sol.status
        if sol.status == "optimal":
            assert sol2.objective_value == sol.objective_value


def test_bland_pivot_path_golden(monkeypatch):
    # both LPs have a whole edge of optima, and each pivot is pinned as
    # (row, slot). The first starts feasible at its slack basis: Bland's
    # rule brings x_1 in, then x_2 in its place, which ends at
    # (0, 1, 0, 0); the lexicographic finish then raises x_4 along the
    # edge, to the named optimum (0, 1, 0, 1/2). The second pivots x_2 and
    # then x_1 into its two equality rows and takes two more steps, to the
    # named optimum (1/2, 0, 0, 1)
    pivots = []
    pivot = lp_module.pivot

    def recorded(rows, r, col):
        pivots.append((r, col))
        pivot(rows, r, col)

    monkeypatch.setattr(lp_module, "pivot", recorded)
    sol = solve_lp(linear_program(
        [-1, -1, -2, 0], [[2, 1, 2, 0], [2, 0, 1, 2], [1, 0, 0, 1]],
        ["<=", "<=", "<="], [1, 1, 2]))
    assert sol.x == (0, 1, 0, Fraction(1, 2))
    assert sol.objective_value == -1
    assert pivots == [(0, 0), (0, 1), (1, 3)]
    del pivots[:]
    sol = solve_lp(linear_program(
        [0, -1, -1, -2], [[0, 1, 2, 2], [2, 2, 1, 0]], ["=", "="], [2, 1]))
    assert sol.x == (Fraction(1, 2), 0, 0, 1)
    assert sol.objective_value == -2
    assert pivots == [(0, 1), (1, 0), (1, 1), (0, 1)]


@pytest.mark.parametrize("call, error, message", [
    (lambda form: form.solve_rows((), [1, 1, 1]), ValueError,
     "rhs length does not match row count"),
    (lambda form: form.solve_rows([(1, 1)], [1, 1]), ValueError,
     "objective length does not match variable count"),
    (solve_lp, TypeError, "expected a LinearProgram"),
], ids=["solve-rhs", "solve-objective", "solve-lp-type"])
def test_standard_form_argument_errors(call, error, message):
    # the rows of linear_program([1, 1], [[1, 1]], ["<="], [1])
    form = StandardForm([[1, 1, 1]], ["<="], [False, False])
    with pytest.raises(error, match=message):
        call(form)
