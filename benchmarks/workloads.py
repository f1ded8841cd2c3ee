"""Benchmark workloads: seeded game instances, the CLI command run on each,
and the check every report must pass.

The seed draws the random games and the command order; the program itself
only ever sees the game files written from these specs. Each instance runs
once per round, and a run has at least two rounds, so every report can be
compared with a repeat of itself.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from rankgames import (
    BimatrixGame,
    MixedProfile,
    block_game,
    identity_game,
    is_nondegenerate,
    loss,
    rank1_family,
    save_game,
    squared_difference_family,
)

WORK_DIR = Path(".bench_work")

# Why each workload exists; BENCHMARK.json repeats these lines.
WORKLOADS = {
    "enum-nondegen": "solve on rank1/sqdiff d=5,6 and seeded random 5x5 games; "
    "the basis brute force and its exact solves dominate",
    "enum-degenerate": "solve --mode components on identity and identity/rank1 "
    "block games; many bases per vertex and O(E^2) component checks",
    "approx-grid": "approx abs/rel on rank-1 and rank-2 games; cell LPs dominate, "
    "enumeration does no work, some rank-2 cells are infeasible",
}

_FAMILIES = {
    "rank1": rank1_family,
    "sqdiff": squared_difference_family,
    "identity": identity_game,
}


@dataclass(frozen=True)
class Instance:
    """One game file and the command run on it.

    spec is ("rank1" | "sqdiff" | "identity", d), ("block", inner, outer) with
    inner and outer family specs, or ("random", m, n, game_seed). args are the
    CLI arguments with the game path left out; check names the output check
    and expect carries its expected value (a count, or eps as a string).
    """

    name: str
    spec: tuple
    args: tuple
    check: str
    expect: object

    def path(self, workload):
        return WORK_DIR / workload / f"{self.name}.txt"

    def argv(self, workload):
        return [self.args[0], str(self.path(workload)), *self.args[1:]]


def random_rank1_sum_game(game_seed, m, n):
    """A with entries in [-99, 99] and B = -A + u v^T with u, v in [1, 9].

    Draws with a tie inside a column of A or a row of B are redrawn: such
    ties are the usual way a draw is degenerate. The rarer mixed-strategy
    degeneracies are caught when a count is checked.
    """
    rng = random.Random(game_seed)
    while True:
        a = [[rng.randint(-99, 99) for _ in range(n)] for _ in range(m)]
        u = [rng.randint(1, 9) for _ in range(m)]
        v = [rng.randint(1, 9) for _ in range(n)]
        b = [[-a[i][j] + u[i] * v[j] for j in range(n)] for i in range(m)]
        if all(len({a[i][j] for i in range(m)}) == m for j in range(n)) and all(
            len(set(row)) == n for row in b
        ):
            return BimatrixGame(a, b)


def build_game(spec):
    if spec[0] == "random":
        return random_rank1_sum_game(spec[3], spec[1], spec[2])
    if spec[0] == "block":
        return block_game(build_game(spec[1]), build_game(spec[2]))
    return _FAMILIES[spec[0]](spec[1])


def equilibrium_count(spec):
    """Known number of equilibria of a family game.

    2d - 1 for rank1 and sqdiff, 2^d - 1 for identity. In a block game of
    components whose equilibria all pay both players a positive amount
    (identity and rank1 do), each equilibrium of either block is one, and so
    is each pair of them mixed across the blocks: (E1 + 1)(E2 + 1) - 1.
    """
    tag = spec[0]
    if tag in ("rank1", "sqdiff"):
        return 2 * spec[1] - 1
    if tag == "identity":
        return 2 ** spec[1] - 1
    if tag == "block":
        return (equilibrium_count(spec[1]) + 1) * (equilibrium_count(spec[2]) + 1) - 1
    raise ValueError(f"no known count for {spec!r}")


def _game_seeds(workload, seed, count):
    rng = random.Random(f"{workload}:{seed}")
    return [rng.getrandbits(64) for _ in range(count)]


def _enum_nondegen(seed, tiny):
    out = []
    for d in (3,) if tiny else (5, 6):
        for tag in ("rank1", "sqdiff"):
            spec = (tag, d)
            out.append(Instance(_spec_name(spec), spec, ("solve",), "enum",
                                equilibrium_count(spec)))
    size = 3 if tiny else 5
    for slot, gs in enumerate(_game_seeds("enum-nondegen", seed, 2 if tiny else 16)):
        out.append(Instance(f"random-{slot}", ("random", size, size, gs),
                            ("solve",), "enum", "odd"))
    return out


def _enum_degenerate(seed, tiny):
    # Sizes set the cost: 4x4 games are cheap, 5x5 ones cost about 5 times
    # more, identity(6) and the 6x6 block 5 times more again. The 14 games of
    # size 5, some of them three blocks, put the median and the p75 well
    # inside the 5x5 class.
    if tiny:
        specs = [("identity", 3), ("block", ("identity", 1), ("rank1", 2))]
    else:
        specs = [("identity", d) for d in (4, 5, 6)] + [
            ("block", inner, outer)
            for inner, outer in [
                (("identity", 1), ("rank1", 3)),
                (("rank1", 3), ("identity", 1)),
                (("identity", 1), ("rank1", 4)),
                (("rank1", 4), ("identity", 1)),
                (("identity", 2), ("rank1", 2)),
                (("identity", 2), ("rank1", 3)),
                (("rank1", 3), ("identity", 2)),
                (("identity", 3), ("rank1", 2)),
                (("rank1", 2), ("identity", 3)),
                (("identity", 3), ("rank1", 3)),
                (("identity", 4), ("rank1", 1)),
                (("rank1", 1), ("identity", 4)),
                (("identity", 1), ("block", ("identity", 1), ("rank1", 3))),
                (("rank1", 1), ("block", ("identity", 1), ("rank1", 3))),
                (("block", ("rank1", 2), ("identity", 1)), ("identity", 2)),
                (("block", ("identity", 2), ("rank1", 1)), ("rank1", 2)),
                (("identity", 1), ("block", ("rank1", 2), ("identity", 2))),
            ]
        ]
    return [Instance(_spec_name(spec), spec, ("solve", "--mode", "components"),
                     "components", equilibrium_count(spec)) for spec in specs]


def _spec_name(spec):
    if spec[0] == "block":
        return f"block-{_spec_name(spec[1])}-{_spec_name(spec[2])}"
    return f"{spec[0]}:{spec[1]}"


def _approx_grid(seed, tiny):
    def abs_cmd(spec, eps, name=None):
        return Instance(f"{name or _spec_name(spec)}-abs", spec,
                        ("approx", "--scheme", "abs", "--eps", eps), "abs", eps)

    def rel_cmd(spec, eps, name=None):
        return Instance(f"{name or _spec_name(spec)}-rel", spec,
                        ("approx", "--scheme", "rel", "--eps", eps), "rel", eps)

    # Every fixed game but two gets an eps that makes its command cost about
    # the same, so the median and the p75 sit in one dense cluster: the grid
    # gets coarser as the LPs get larger. Below the cluster are the cheap
    # random games, whose cost varies with the seed; above it, rel rank1(5)
    # at eps 1/4 (64 cell LPs) and the rank-2 block game at eps 1/2, whose
    # 8 x 8 grid has 22 infeasible cells. The rank-1 games have none.
    if tiny:
        out = [abs_cmd(("rank1", 4), "1/4"), rel_cmd(("rank1", 3), "1/2"),
               abs_cmd(("block", ("rank1", 2), ("rank1", 2)), "1/2")]
    else:
        out = [abs_cmd(("rank1", d), eps) for d, eps in
               [(5, "1/20"), (6, "1/14"), (7, "1/10"), (8, "1/7"), (9, "1/6"),
                (10, "1/5")]]
        out += [rel_cmd(("rank1", 4), "1/4"), rel_cmd(("rank1", 5), "1/3"),
                abs_cmd(("block", ("rank1", 2), ("rank1", 3)), "1/2"),
                rel_cmd(("rank1", 5), "1/4", "rank1:5-fine"),
                abs_cmd(("block", ("rank1", 3), ("rank1", 3)), "1/2")]
    size = 3 if tiny else 4
    for slot, gs in enumerate(_game_seeds("approx-grid", seed, 1 if tiny else 4)):
        out.append(abs_cmd(("random", size, size, gs), "1/5", f"random-{slot}"))
    return out


_BUILDERS = {
    "enum-nondegen": _enum_nondegen,
    "enum-degenerate": _enum_degenerate,
    "approx-grid": _approx_grid,
}


def instances(workload, seed, tiny=False):
    """The instances of one round of the workload; tiny gives a seconds-long
    version of the same mix for smoke tests."""
    return _BUILDERS[workload](seed, tiny)


def write_games(workload, insts):
    """Generate every instance's game and write its game file."""
    (WORK_DIR / workload).mkdir(parents=True, exist_ok=True)
    for inst in insts:
        save_game(inst.path(workload), build_game(inst.spec))


def _fractions(entries):
    return tuple(Fraction(e) for e in entries)


def _profile(eq):
    return MixedProfile(_fractions(eq["x"]), _fractions(eq["y"]))


def _float_rank(matrix):
    return int(np.linalg.matrix_rank(np.array(matrix, dtype=float)))


def check_report(inst, game, report):
    """Return None when the parsed report is right for the instance, else a
    one-line reason.

    Profiles are re-checked with rankgames.loss on the in-memory game, which
    was built from the spec, not parsed back from the game file.
    """
    if report.get("schema_version") != 1:
        return f"schema_version is {report.get('schema_version')!r}"
    res = report["results"]
    if inst.check == "enum":
        eqs = res["equilibria"]
        if res["count"] != len(eqs):
            return f"count {res['count']} but {len(eqs)} equilibria listed"
        for eq in eqs:
            if Fraction(eq["loss"]) != 0 or loss(game, _profile(eq)) != 0:
                return "a reported equilibrium has nonzero loss"
        if inst.expect == "odd":
            # A nondegenerate game has an odd number of equilibria, each its
            # own component; the rare degenerate draw is exempt.
            odd_isolated = len(eqs) % 2 == 1 and res["component_count"] == len(eqs)
            if not odd_isolated and is_nondegenerate(game):
                return (f"{len(eqs)} equilibria in {res['component_count']} "
                        "components of a nondegenerate game")
        elif len(eqs) != inst.expect or res["component_count"] != inst.expect:
            return (f"count {len(eqs)}, components {res['component_count']}, "
                    f"expected {inst.expect}")
        return None
    if inst.check == "components":
        sizes = sum(len(c) for c in res["components"])
        if res["component_count"] != inst.expect or sizes != inst.expect:
            return (f"{res['component_count']} components holding {sizes} "
                    f"equilibria, expected {inst.expect}")
        ranks = (_float_rank(game.a.tolist()), _float_rank(game.b.tolist()))
        if (res["rank_a"], res["rank_b"]) != ranks:
            return f"ranks {(res['rank_a'], res['rank_b'])}, expected {ranks}"
        return None
    eps = Fraction(inst.expect)
    profile = _profile(res["equilibrium"])
    gap = loss(game, profile)
    if inst.check == "abs":
        target = eps * max(abs(e) for e in game.c.flat)
        if Fraction(res["target"]) != target:
            return f"target {res['target']}, expected {target}"
        if gap > target:
            return f"loss {gap} exceeds eps * |A+B| = {target}"
        return None
    rho = 1 - 1 / (1 + eps) ** 2
    if Fraction(res["rho"]) != rho:
        return f"rho {res['rho']}, expected {rho}"
    x = np.array(profile.x, dtype=object)
    y = np.array(profile.y, dtype=object)
    s = gap + Fraction(x @ game.c @ y)
    if gap > rho * s:
        return f"gap {gap} exceeds rho * s = {rho * s}"
    return None
