"""Tests of the benchmark harness itself; not part of the tier-1 suite.

    python -m pytest benchmarks/tests -q
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import run
import workloads
from rankgames import (
    approx,
    build_polyhedra,
    enumerate_by_supports,
    enumerate_equilibria,
    is_nondegenerate,
    polyhedra,
    rank1_family,
)
from tracing import Tracer, layer_metrics, self_times

ALL = sorted(workloads.WORKLOADS)


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(run.ROOT)


def _traced(call):
    """Layer metrics of call(), which must look its function up on the
    module at call time, so that it gets the wrapped one."""
    with Tracer() as tracer:
        tracer.request = 0
        call()
        tracer.request = None
    return layer_metrics(tracer.spans)


@pytest.mark.parametrize("workload", ALL)
def test_tiny_run_is_correct(workload, at_root):
    correct, attempted, failed, metrics, _, results = run.run_benchmark(
        workload, seed=0, seconds=1, trace=0, tiny=True)
    assert correct and failed == 0 and attempted >= run.MIN_SAMPLES
    assert set(metrics) == {"setup_s", "cmd_s_p50", "cmd_s_tail", "solved_per_s",
                            "failed_ratio", "peak_rss_mb"}
    assert metrics["failed_ratio"][0] == 0
    assert all(value > 0 for name, (value, _) in metrics.items()
               if name != "failed_ratio")
    assert set(results["digests"]) == {i.name for i in workloads.instances(
        workload, 0, tiny=True)}


@pytest.mark.parametrize("workload", ALL)
def test_traced_counts_repeat_exactly(workload, at_root):
    counts = []
    for _ in range(2):
        correct, _, _, metrics, notes, _ = run.run_benchmark(
            workload, seed=3, seconds=1, trace=1, tiny=True)
        assert correct and "trace.overhead_s" in notes
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["linalg.rank_calls"] > 0


def test_roadmap_baseline_counts():
    q_side = build_polyhedra(rank1_family(7))[1]
    m = _traced(lambda: polyhedra.enumerate_vertices(q_side))
    assert (m["linalg.solve_calls"], m["polyhedra.vertices"]) == (3432, 63)

    m = _traced(lambda: approx.approx_absolute(rank1_family(10), Fraction(1, 20)))
    assert (m["lp.solve_calls"], m["lp.infeasible"], m["approx.cells"]) == (36, 0, 36)

    m = _traced(lambda: approx.approx_relative(rank1_family(5), Fraction(1, 4)))
    assert m["lp.solve_calls"] == 64


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_games_match_support_enumeration(seed):
    randoms = [i for i in workloads.instances("enum-nondegen", seed)
               if i.spec[0] == "random"]
    for inst in randoms[:2]:
        game = workloads.build_game(inst.spec)
        assert is_nondegenerate(game)
        found = {(p.x, p.y) for p in enumerate_equilibria(game).profiles}
        assert found == {(p.x, p.y) for p in enumerate_by_supports(game)}
        assert len(found) % 2 == 1


@pytest.mark.parametrize("spec", [
    ("block", ("identity", 1), ("rank1", 2)),
    ("block", ("rank1", 2), ("identity", 2)),
    ("block", ("identity", 2), ("identity", 1)),
    ("block", ("identity", 1), ("block", ("identity", 1), ("rank1", 2))),
])
def test_block_count_formula(spec):
    game = workloads.build_game(spec)
    assert len(enumerate_equilibria(game).reports) == workloads.equilibrium_count(spec)


def test_checks_reject_wrong_reports(at_root):
    inst = workloads.instances("enum-nondegen", 0, tiny=True)[0]
    workloads.write_games("enum-nondegen", [inst])
    _, text, error = run.run_command(run.import_rankgames().cli,
                                     inst.argv("enum-nondegen"))
    game = workloads.build_game(inst.spec)
    assert error is None
    assert workloads.check_report(inst, game, json.loads(text)) is None

    wrong_count = json.loads(text)
    wrong_count["results"]["count"] += 1
    assert workloads.check_report(inst, game, wrong_count) is not None

    wrong_profile = json.loads(text)
    eq = wrong_profile["results"]["equilibria"][0]
    # row 1 against the last column: row 1 is no best response there
    eq["x"] = ["1"] + ["0"] * (game.m - 1)
    eq["y"] = ["0"] * (game.n - 1) + ["1"]
    assert workloads.check_report(inst, game, wrong_profile) is not None


def test_self_times_subtract_direct_children():
    spans = [["a", 0.0, 10.0, -1, 0, None],
             ["b", 1.0, 4.0, 0, 0, None],
             ["c", 2.0, 3.0, 1, 0, None],
             ["d", 5.0, 6.0, 0, 0, None]]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_without_the_package_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "approx-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
