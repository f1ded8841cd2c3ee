"""Exact tools for bimatrix games whose payoff sum has low rank.

The package keeps every computation in exact rational arithmetic, so
equilibrium claims are checked by equality, never by tolerance. Payoffs,
polyhedron vertices, LP solutions and reported profiles are Fractions; the
one elimination kernel, linalg.pivot, works on rows of Python ints that
share one denominator per row, and its results are read back as Fractions.
"""

from .approx import (
    GamePerturbation,
    approx_absolute,
    approx_relative,
    equilibrium_survives_perturbation,
    perturb_game,
    solve_zero_sum,
    svd_truncate,
)
from .bounds import (
    BoundReport,
    block_hierarchy_count,
    bound_report,
    f_count,
    keiding_phi,
    rank_component_bound,
    tau,
)
from .enumeration import (
    EquilibriumSet,
    enumerate_by_supports,
    enumerate_equilibria,
)
from .errors import CapExceededError, GameFormatError
from .families import (
    additive_to_zero_sum,
    block_game,
    find_additive_decomposition,
    identity_game,
    polynomial_kernel_game,
    polynomial_kernel_matrix,
    rank1_family,
    squared_difference_family,
)
from .gamefiles import (
    format_decomposition_text,
    format_game_text,
    format_profile_text,
    load_decomposition,
    load_game,
    parse_decomposition_text,
    parse_game_text,
    parse_profile_text,
    save_decomposition,
    save_game,
)
from .games import (
    BimatrixGame,
    EquilibriumReport,
    MixedProfile,
    best_response_values,
    check_deviation_bound,
    is_approximate_equilibrium,
    is_exact_equilibrium,
    loss,
    make_report,
    payoffs,
    pure_profile,
    qp_objective,
)
from .linalg import (
    RankFactorization,
    as_fraction,
    matrix_rank,
    rank_factorize,
    solve_linear_system,
)
from .lp import LinearProgram, LpSolution, linear_program, solve_lp
from .polyhedra import (
    BestResponsePolyhedron,
    PolyhedronVertex,
    build_polyhedra,
    enumerate_vertices,
    is_nondegenerate,
)

__version__ = "0.1.0"
