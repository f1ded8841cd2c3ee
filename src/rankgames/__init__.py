"""Exact tools for bimatrix games whose payoff sum has low rank.

The package keeps every computation in rational arithmetic: payoffs, LP
pivots, polyhedron vertices, and reported profiles are Fractions end to end,
so equilibrium claims are checked by equality, never by tolerance.
"""

from .approx import (
    GamePerturbation,
    approx_absolute,
    approx_relative,
    equilibrium_survives_perturbation,
    perturb_game,
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
    DEFAULT_CAP,
    EquilibriumSet,
    connected_component_count,
    enumerate_by_supports,
    enumerate_equilibria,
    solve_zero_sum,
)
from .errors import CapExceededError, GameFormatError
from .families import (
    FamilySpec,
    additive_to_zero_sum,
    block_game,
    build_family,
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
    fraction_matrix,
    fraction_vector,
    matrix_rank,
    max_abs_entry,
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
