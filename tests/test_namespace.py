"""The package namespace: each public name loads its home submodule on its
first read, and resolves to the object that submodule defines."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Every public name of the package, by the submodule that defines it.
PUBLIC = {
    "approx": ["GamePerturbation", "approx_absolute", "approx_relative",
               "equilibrium_survives_perturbation", "perturb_game",
               "solve_zero_sum", "svd_truncate"],
    "bounds": ["BoundReport", "block_hierarchy_count", "bound_report",
               "f_count", "keiding_phi", "rank_component_bound", "tau"],
    "enumeration": ["EquilibriumSet", "enumerate_by_supports",
                    "enumerate_equilibria"],
    "errors": ["CapExceededError", "GameFormatError"],
    "families": ["additive_to_zero_sum", "block_game",
                 "find_additive_decomposition", "identity_game",
                 "polynomial_kernel_game", "polynomial_kernel_matrix",
                 "rank1_family", "squared_difference_family"],
    "gamefiles": ["format_decomposition_text", "format_game_text",
                  "format_profile_text", "load_decomposition", "load_game",
                  "parse_decomposition_text", "parse_game_text",
                  "parse_profile_text", "save_decomposition", "save_game"],
    "games": ["BimatrixGame", "EquilibriumReport", "MixedProfile",
              "best_response_values", "check_deviation_bound",
              "is_approximate_equilibrium", "is_exact_equilibrium", "loss",
              "make_report", "payoffs", "pure_profile", "qp_objective"],
    "linalg": ["RankFactorization", "as_fraction", "matrix_rank",
               "rank_factorize", "solve_linear_system"],
    "lp": ["LinearProgram", "LpSolution", "linear_program", "solve_lp"],
    "polyhedra": ["BestResponsePolyhedron", "PolyhedronVertex",
                  "build_polyhedra", "enumerate_vertices",
                  "is_nondegenerate"],
}

# Run in a fresh interpreter with the set-up names and PUBLIC as its
# arguments; prints one JSON object of what it saw.
_NAMESPACE_RUN = """
import importlib, json, sys
import rankgames

def loaded():
    return sorted(key.split(".", 1)[1] for key in sys.modules
                  if key.startswith("rankgames."))

seen = {"bare": loaded()}
exec("from rankgames import " + sys.argv[1], {})
seen["setup"] = loaded()
public = json.loads(sys.argv[2])
seen["other_object"] = [
    name for home, names in public.items() for name in names
    if getattr(rankgames, name)
    is not getattr(importlib.import_module("rankgames." + home), name)]
seen["unbound"] = [name for names in public.values() for name in names
                   if name not in vars(rankgames)]
seen["not_submodule"] = [
    home for home in public
    if getattr(rankgames, home) is not sys.modules["rankgames." + home]]
star = {}
exec("from rankgames import *", star)
seen["star"] = sorted(set(star) - {"__builtins__"})
seen["dir"] = [name for name in dir(rankgames) if not name.startswith("_")]
try:
    rankgames.fraction_matrix
except AttributeError as exc:
    seen["unknown"] = str(exc)
try:
    exec("from rankgames import fraction_matrix", {})
except ImportError:
    seen["unknown_import"] = "ImportError"
print(json.dumps(seen))
"""


def _setup_names():
    """The names benchmarks/workloads.py imports from rankgames."""
    tree = ast.parse((ROOT / "benchmarks" / "workloads.py").read_text())
    return sorted(alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and node.module == "rankgames" for alias in node.names)


def test_names_load_their_home_submodule_on_first_read():
    """import rankgames loads no submodule; the benchmark's set-up names
    load games, linalg, errors, families, gamefiles and polyhedra and none
    of approx, lp, enumeration and bounds; every public name and submodule
    resolves as it did when the package imported them all, and is bound in
    the package after its first read; an unknown name is an AttributeError."""
    setup = _setup_names()
    assert "BimatrixGame" in setup and "save_game" in setup
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", _NAMESPACE_RUN, ", ".join(setup),
         json.dumps(PUBLIC)],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    seen = json.loads(run.stdout)
    assert seen["bare"] == []
    assert seen["setup"] == ["errors", "families", "gamefiles", "games",
                             "linalg", "polyhedra"]
    assert sum(map(len, PUBLIC.values())) == 63
    assert seen["other_object"] == [] and seen["unbound"] == []
    assert seen["not_submodule"] == []
    everything = sorted([*PUBLIC, *(n for ns in PUBLIC.values() for n in ns)])
    assert seen["star"] == everything
    assert seen["dir"] == everything
    assert seen["unknown"] == \
        "module 'rankgames' has no attribute 'fraction_matrix'"
    assert seen["unknown_import"] == "ImportError"
