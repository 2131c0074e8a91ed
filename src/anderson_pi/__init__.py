"""Anderson-accelerated policy/value iteration for tabular MDPs.

Damped Anderson mixing of the Bellman fixed-point iteration with three
coefficient solvers (simplex-constrained, unconstrained, and
ridge-stabilized), mellowmax / Boltzmann-softmax / hard-max operators,
and a diagnostics layer that turns the method's stability bounds into
runnable checks.
"""

from .anderson import (
    AndersonHistory,
    HistoryMatrices,
    MixingSolution,
    alpha_to_tau,
    build_history_matrices,
    gain_theta,
    mixed_update,
    quasi_newton_update,
    solve_alpha_kkt,
    solve_tau_regularized,
    solve_tau_unconstrained,
    tau_to_alpha,
    transformation_matrix,
)
from .diagnostics import (
    BoundCheckRecord,
    check_contraction,
    check_coefficient_bounds,
    check_update_norm_bound,
    empirical_rate_report,
    run_check_suite,
)
from .linalg import SingularSystemError, frobenius_norm, solve_spd, spectral_norm
from .mdp import (
    MdpFormatError,
    TabularMdp,
    generate_gridworld,
    generate_random_mdp,
    load_mdp,
    save_mdp,
    validate,
)
from .operators import (
    OperatorKind,
    OperatorSpec,
    apply_bellman,
    boltzmann_softmax,
    greedy_policy,
    hard_max,
    mellowmax,
    mellowmax_grad,
    residual,
)
from .solver import (
    BetaConvention,
    DivergenceError,
    OraclePrecisionError,
    Scheme,
    SolverConfig,
    SolverTrace,
    fixed_point_oracle,
    run,
    run_ensemble,
    write_trace_csv,
)

__version__ = "0.1.0"

__all__ = [
    "AndersonHistory",
    "BetaConvention",
    "BoundCheckRecord",
    "DivergenceError",
    "HistoryMatrices",
    "MdpFormatError",
    "MixingSolution",
    "OperatorKind",
    "OperatorSpec",
    "OraclePrecisionError",
    "Scheme",
    "SingularSystemError",
    "SolverConfig",
    "SolverTrace",
    "TabularMdp",
    "alpha_to_tau",
    "apply_bellman",
    "boltzmann_softmax",
    "build_history_matrices",
    "check_contraction",
    "check_coefficient_bounds",
    "check_update_norm_bound",
    "empirical_rate_report",
    "fixed_point_oracle",
    "frobenius_norm",
    "gain_theta",
    "generate_gridworld",
    "generate_random_mdp",
    "greedy_policy",
    "hard_max",
    "load_mdp",
    "mellowmax",
    "mellowmax_grad",
    "mixed_update",
    "quasi_newton_update",
    "residual",
    "run",
    "run_check_suite",
    "run_ensemble",
    "save_mdp",
    "solve_alpha_kkt",
    "solve_spd",
    "solve_tau_regularized",
    "solve_tau_unconstrained",
    "spectral_norm",
    "tau_to_alpha",
    "transformation_matrix",
    "validate",
    "write_trace_csv",
]
