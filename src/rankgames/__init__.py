"""Exact tools for bimatrix games whose payoff sum has low rank.

The package keeps every computation in exact rational arithmetic, so
equilibrium claims are checked by equality, never by tolerance. Payoffs,
polyhedron vertices, LP solutions and reported profiles are Fractions; the
one elimination kernel, linalg.pivot, works on rows of Python ints that
share one denominator per row, and its results are read back as Fractions.

Importing the package imports no submodule: each name below is read from
its home submodule, imported on the name's first read (PEP 562).
"""

# Each submodule and the public names read from it.
_EXPORTS = {
    "approx": (
        "GamePerturbation",
        "approx_absolute",
        "approx_relative",
        "equilibrium_survives_perturbation",
        "perturb_game",
        "solve_zero_sum",
        "svd_truncate",
    ),
    "bounds": (
        "BoundReport",
        "block_hierarchy_count",
        "bound_report",
        "f_count",
        "keiding_phi",
        "rank_component_bound",
        "tau",
    ),
    "enumeration": (
        "EquilibriumSet",
        "enumerate_by_supports",
        "enumerate_equilibria",
    ),
    "errors": ("CapExceededError", "GameFormatError"),
    "families": (
        "additive_to_zero_sum",
        "block_game",
        "find_additive_decomposition",
        "identity_game",
        "polynomial_kernel_game",
        "polynomial_kernel_matrix",
        "rank1_family",
        "squared_difference_family",
    ),
    "gamefiles": (
        "format_decomposition_text",
        "format_game_text",
        "format_profile_text",
        "load_decomposition",
        "load_game",
        "parse_decomposition_text",
        "parse_game_text",
        "parse_profile_text",
        "save_decomposition",
        "save_game",
    ),
    "games": (
        "BimatrixGame",
        "EquilibriumReport",
        "MixedProfile",
        "best_response_values",
        "check_deviation_bound",
        "is_approximate_equilibrium",
        "is_exact_equilibrium",
        "loss",
        "make_report",
        "payoffs",
        "pure_profile",
        "qp_objective",
    ),
    "linalg": (
        "RankFactorization",
        "as_fraction",
        "matrix_rank",
        "rank_factorize",
        "solve_linear_system",
    ),
    "lp": ("LinearProgram", "LpSolution", "linear_program", "solve_lp"),
    "polyhedra": (
        "BestResponsePolyhedron",
        "PolyhedronVertex",
        "build_polyhedra",
        "enumerate_vertices",
        "is_nondegenerate",
    ),
}

# The table: each submodule and each public name -> its home submodule.
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in (module, *names)}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    """Import the home submodule of a name on the name's first read, and
    bind the value here, so later reads are plain lookups."""
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's path, so -X importtime reports the submodule;
    # importing it binds it in this namespace
    __import__(f"{__name__}.{home}")
    module = globals()[home]
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
