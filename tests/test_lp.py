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
    reference_grid_cells,
    reference_grid_lp,
    reference_price_out,
    reference_shifted_rhs,
    reference_tableau,
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
    # variables split in two, finite boxes add bound rows; negative
    # right-hand sides flip rows, and the flips move the artificials. The
    # form is built on the reduction solve_lp runs, and its tableau must be
    # the reference's, rebuilt from the bounded LP's Fractions
    rng = random.Random(523)

    def rational(bound):
        return Fraction(rng.randint(-bound, bound), rng.randint(1, 3))

    crossed = flipped = solved = 0
    for _ in range(120):
        nvars, nrows = rng.randint(1, 4), rng.randint(1, 4)
        lower, upper = _random_bounds(rng, nvars, rational)
        lp = linear_program(
            [rational(5) for _ in range(nvars)],
            [[rational(4) for _ in range(nvars)] for _ in range(nrows)],
            [rng.choice(["<=", ">=", "="]) for _ in range(nrows)],
            [rational(6) for _ in range(nrows)], lower, upper)
        form = _standard_form(lp)
        if reference_tableau(lp) is None:
            crossed += 1
            assert _solve(form, lp).status == "infeasible"
            continue
        other = replace(lp, rhs=tuple(rational(6) for _ in range(nrows)))
        assert _standard_form(other).rows == form.rows
        for ref in (lp, other):
            red = lp_module._reduce_bounds(ref)[0]
            assert form._tableau(_pairs(red.rhs)) == reference_tableau(ref)
            flipped += any(b < 0 for b in reference_shifted_rhs(ref))
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
    assert crossed >= 10 and flipped >= 100 and solved >= 80


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


def _read(result):
    """A solve_rows result with its pairs read as Fractions."""
    status, values, value = result
    if status != "optimal":
        return status, values, value
    return status, [Fraction(*p) for p in values], Fraction(*value)


def test_warm_solves_equal_cold_solves(monkeypatch):
    # a form keeps the dictionary of its last optimal solve and re-solves
    # from it, keeping a warm optimum only when it is certified unique: each
    # result, read as Fractions, must be a fresh form's, whatever the form
    # solved before. The sequences are the cells of grids, in product order
    # and shuffled, and random LPs whose right-hand sides and objectives
    # move between solves
    kept = []  # (form, warm result or None) of each solve with a kept dictionary
    warm = StandardForm._warm

    def recorded(form, rhs, zrow):
        kept.append((form, warm(form, rhs, zrow)))
        return kept[-1][1]

    monkeypatch.setattr(StandardForm, "_warm", recorded)
    rng = random.Random(3001)

    def run(lhs, senses, free, cells):
        form = StandardForm(lhs, senses, free)
        for rhs, cost in cells:
            got = _read(form.solve_rows(rhs, cost))
            assert got == _read(StandardForm(lhs, senses, free).solve_rows(
                rhs, cost))
        return [result for f, result in kept if f is form]

    # the absolute grids of the two block games run every cell, and six of
    # their cells have a warm optimum other than the cold one; NEG's factor
    # rows take negative right-hand sides, SHARED's rows share a factor
    # with their denominator, and a relative grid keeps its cost
    grids = []
    for scheme, game, eps in [
        ("abs", block_game(rank1_family(2), rank1_family(3)), Fraction(1, 2)),
        ("abs", block_game(rank1_family(3), rank1_family(3)), Fraction(1, 2)),
        ("abs", NEG, Fraction(1, 2)),
        ("abs", SHARED, Fraction(1)),
        ("rel", rank1_family(4), Fraction(1, 4)),
    ]:
        lp = reference_grid_lp(game, scheme)
        cells = [(_pairs(rhs), int_row(objective))
                 for rhs, objective in reference_grid_cells(game, eps, scheme)]
        shuffled = rng.sample(cells, len(cells))
        for order in (cells, shuffled):
            results = run([int_row(row) for row in lp.lhs], lp.senses,
                          [lo is None for lo in lp.lower], order)
            grids.append(Counter("cold" if r is None else r[0]
                                 for r in results))
    # warm optima not certified unique solve cold again; the other warm
    # solves end optimal or prove the cell infeasible
    assert all(grid["cold"] >= 3 for grid in grids[:4])
    assert sum(grid["optimal"] for grid in grids) >= 240
    assert sum(grid["infeasible"] for grid in grids) >= 70

    def rational(bound):
        return Fraction(rng.randint(-bound, bound), rng.randint(1, 3))

    # random LPs over bounded and free variables: a step moves each
    # right-hand side with probability 1/2, an equality row's with 1/10,
    # which sends the solve cold, and keeps the objective half the time
    statuses = Counter()
    equality_moves = 0
    del kept[:]
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
            sol = _solve(form, lp)
            assert sol == solve_lp(lp)
            statuses[sol.status] += 1
    results = Counter("cold" if r is None else r[0] for _, r in kept)
    assert min(statuses.values()) >= 150 and len(statuses) == 3
    assert min(results.values()) >= 50 and len(results) == 4
    assert equality_moves >= 80


def test_price_out_matches_pricing_every_basic_column(monkeypatch):
    # _price_out folds in only the rows of the basic variables with a
    # nonzero cost, in one row combination over the nonbasic slots; the
    # reference pivots on every basic column of the full tableau, whose
    # other basic columns are unit columns no pivot changes. Restricted to
    # the nonbasic columns, the reference rows must be the dictionary rows
    # integer for integer, in phase 1 and phase 2
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
    # two calls: phase 1 with artificials, then phase 2
    assert per_lp.count(2) >= 50 and per_lp.count(1) >= 10


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


def test_bland_pivot_path_golden():
    # both LPs have a whole edge of optima; the returned vertex is the one
    # Bland's rule reaches, so these pin the pivot path (phase 2 alone, and
    # phase 1 with artificials then phase 2)
    sol = solve_lp(linear_program(
        [-1, -1, -2, 0], [[2, 1, 2, 0], [2, 0, 1, 2], [1, 0, 0, 1]],
        ["<=", "<=", "<="], [1, 1, 2]))
    assert sol.x == (0, 1, 0, 0)
    assert sol.objective_value == -1
    sol = solve_lp(linear_program(
        [0, -1, -1, -2], [[0, 1, 2, 2], [2, 2, 1, 0]], ["=", "="], [2, 1]))
    assert sol.x == (Fraction(1, 2), 0, 0, 1)
    assert sol.objective_value == -2


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
