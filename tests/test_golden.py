"""Golden digests: sha256 pins over seeded grid, LP, vertex-walk and CLI
results.

Each digest hashes the repr of every result of one seeded sample, so any
change to what the grid schemes, the simplex or the vertex walk return,
down to the integer pairs a vertex keeps, changes it, and so does any
change to the bytes, exit code or error text of a CLI command. A change to
the elimination kernel or to a pivot rule that is meant to alter results
has to re-pin these on purpose.
"""

import random
from collections import Counter
from fractions import Fraction
from hashlib import sha256

from rankgames import (
    BimatrixGame,
    RankFactorization,
    approx_absolute,
    approx_relative,
    block_game,
    build_polyhedra,
    enumerate_vertices,
    identity_game,
    linear_program,
    solve_lp,
)
from rankgames.cli import main
from rankgames.lp import StandardForm


def _digest(results):
    return sha256("\n".join(map(repr, results)).encode()).hexdigest()


def _fraction(rng, bound, den):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, den))


def _matrix(rng, m, n, bound=4, den=3):
    return [[_fraction(rng, bound, den) for _ in range(n)] for _ in range(m)]


def _outer_sum(pairs, m, n):
    return [[sum((u[i] * v[j] for u, v in pairs), Fraction(0))
             for j in range(n)] for i in range(m)]


def _grid_game(rng, k):
    """A game of m, n in k..3 (1..3 for k = 0) whose payoff sum is k
    nonnegative rank-one terms with fractional entries, and those terms."""
    m, n = rng.randint(max(k, 1), 3), rng.randint(max(k, 1), 3)
    pairs = tuple(
        (tuple(Fraction(rng.randint(0, 3), rng.randint(1, 2)) for _ in range(m)),
         tuple(Fraction(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(n)))
        for _ in range(k))
    a = _matrix(rng, m, n)
    c = _outer_sum(pairs, m, n)
    b = [[cij - aij for aij, cij in zip(ar, cr)] for ar, cr in zip(a, c)]
    return BimatrixGame(a, b), RankFactorization((m, n), pairs)


def _report(rep):
    return (rep.profile.x, rep.profile.y, rep.loss, rep.payoff1, rep.payoff2,
            rep.kind, rep.parameter)


def test_grid_results_digest(monkeypatch):
    rng = random.Random(2101)
    statuses = Counter()
    solve_rows = StandardForm.solve_rows

    def counted(form, rhs, cost):
        out = solve_rows(form, rhs, cost)
        statuses[out[0]] += 1
        return out

    monkeypatch.setattr(StandardForm, "solve_rows", counted)
    results = []
    ranks = Counter()
    for _ in range(320):
        k = rng.randint(0, 2)
        game, decomp = _grid_game(rng, k)
        ranks[game.rank_c] += 1
        eps = Fraction(rng.randint(2, 5), 3)
        results.append(_report(approx_absolute(game, eps)))
        results.append(_report(approx_relative(game, eps, decomp=decomp)))
    # every rank 0..2 and both LP outcomes of a cell are in the sample
    assert min(ranks[r] for r in range(3)) >= 60
    assert statuses["infeasible"] >= 100 and statuses["optimal"] >= 1000
    # each cell's result is its LP's named optimum, the lexicographically
    # greatest optimal point, whatever the cells solved before it
    assert _digest(results) == (
        "0e6d54ebd0b8cf035a9a184d52a8f3432737ba6df27e7cbd546378d4f8006c14")


def _bounds(rng):
    """One variable's (lower, upper): each finite or None, and crossed
    boxes, whose LPs are infeasible, now and then."""
    kind = rng.randrange(6)
    lo, up = _fraction(rng, 3, 2), _fraction(rng, 3, 2)
    if kind == 0:
        return Fraction(0), None
    if kind == 1:
        return lo, None
    if kind == 2:
        return None, up
    if kind == 3:
        return None, None
    if kind == 4:
        return min(lo, up), max(lo, up)
    return max(lo, up) + 1, min(lo, up)


def test_lp_results_digest():
    rng = random.Random(2102)
    results = []
    kinds = Counter()
    statuses = Counter()
    for _ in range(500):
        nvars, nrows = rng.randint(1, 4), rng.randint(0, 4)
        lower, upper = zip(*(_bounds(rng) for _ in range(nvars)))
        for lo, up in zip(lower, upper):
            kinds[(lo is None, up is None)] += 1
        lp = linear_program(
            [_fraction(rng, 5, 3) for _ in range(nvars)],
            _matrix(rng, nrows, nvars),
            [rng.choice(["<=", ">=", "="]) for _ in range(nrows)],
            [_fraction(rng, 6, 2) for _ in range(nrows)], lower, upper)
        sol = solve_lp(lp)
        statuses[sol.status] += 1
        results.append(sol)
    assert min(kinds.values()) >= 100 and len(kinds) == 4
    assert min(statuses.values()) >= 60 and len(statuses) == 3
    # solve_lp returns the named optimum whenever every tie-break objective
    # is bounded
    assert _digest(results) == (
        "5b2c0d5b02205ef3478185a8ccc91ed0c90d102df56d19d84a4829d3801e584a")


def _walk_games(rng):
    """Drawn games of 1..4 by 1..4 strategies: entries 0..2, whose ties
    make degenerate vertices; fractional entries; tied columns; and
    identity blocks."""
    for _ in range(90):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        yield BimatrixGame(*([[rng.randint(0, 2) for _ in range(n)]
                              for _ in range(m)] for _ in range(2)))
    for _ in range(70):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        yield BimatrixGame(_matrix(rng, m, n, 3, 4), _matrix(rng, m, n, 3, 4))
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 3)
        a, b = _matrix(rng, m, n, 2, 2), _matrix(rng, m, n, 2, 2)
        j = rng.randrange(n)
        yield BimatrixGame([row + [row[j]] for row in a],
                           [row + [row[j]] for row in b])
    for d in range(1, 5):
        yield identity_game(d)
        for e in range(1, 4):
            other = BimatrixGame(*(_matrix(rng, e, e, 2, 2) for _ in range(2)))
            yield block_game(identity_game(d), other)


def test_walk_results_digest():
    rng = random.Random(2103)
    results = []
    degenerate = 0
    for game in _walk_games(rng):
        for poly in build_polyhedra(game):
            vertices = enumerate_vertices(poly)
            degenerate += any(v.tight.bit_count() > poly.strategy_len
                              for v in vertices)
            results.append(tuple((v.coords, v.tight) for v in vertices))
    assert len(results) >= 400 and degenerate >= 100
    assert _digest(results) == (
        "6e740358d585bd8694fb9634bc70f5076e94b0f9c9473b33ffda5af910678d09")


def _token(rng, value):
    """value written as one of the entry spellings a game file takes:
    p/q, p/q unreduced, a signed or zero-padded integer, or a decimal."""
    style = rng.randrange(5)
    if value.denominator == 1 and style < 3:
        n = value.numerator
        return [str(n), f"+{n}" if n >= 0 else str(n), f"{n:04d}"][style]
    if style == 3 and 1000 % value.denominator == 0:
        return f"{float(value):.3f}"
    k = rng.randint(1, 3)
    return f"{value.numerator * k}/{value.denominator * k}"


def _game_file(rng, game):
    """The text of a game file for game, each entry in a drawn spelling."""
    lines = [f"# drawn game\n{game.m} {game.n}"]
    for mat in (game.a, game.b):
        lines += [" ".join(_token(rng, e) for e in row) for row in mat]
    return "\n".join(lines) + "\n"


def _cli_games(rng):
    """(game, command tail) pairs: fractional low-rank games for both grid
    schemes, drawn games with ties for both solve modes, and families."""
    for _ in range(30):
        game, _ = _grid_game(rng, rng.randint(0, 2))
        eps = f"{rng.randint(2, 5)}/3"
        yield game, ["approx", "--scheme", "abs", "--eps", eps]
        yield game, ["approx", "--scheme", "rel", "--eps", eps]
    for _ in range(30):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        if rng.random() < 0.5:
            game = BimatrixGame(*([[rng.randint(0, 2) for _ in range(n)]
                                   for _ in range(m)] for _ in range(2)))
        else:
            game = BimatrixGame(_matrix(rng, m, n, 3, 4),
                                _matrix(rng, m, n, 3, 4))
        yield game, ["solve"]
        yield game, ["solve", "--mode", "components"]
    for game in (identity_game(3), block_game(identity_game(2),
                                              identity_game(1))):
        yield game, ["solve"]
        yield game, ["solve", "--mode", "components"]


def test_cli_results_digest(tmp_path, monkeypatch, capsys):
    """stdout, stderr and the exit code of cli.main on seeded game files
    whose entries are written in every spelling the parser takes."""
    monkeypatch.chdir(tmp_path)
    rng = random.Random(2201)
    results = []
    codes = Counter()
    for t, (game, cmd) in enumerate(_cli_games(rng)):
        name = f"g{t}.txt"
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(_game_file(rng, game))
        code = main([cmd[0], name, *cmd[1:]])
        out, err = capsys.readouterr()
        codes[code] += 1
        results.append((code, out, err))
    # a relative grid refuses a game whose own factorization has a
    # negative entry (exit 2); every other command succeeds
    assert codes == {0: 121, 2: 3}
    assert _digest(results) == (
        "69b7a92878e97c0084d376080610db5f540bd30f4481cd09436a21dd8bc143e8")
