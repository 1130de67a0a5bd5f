"""Two-person zero-sum stochastic linear-quadratic differential games on a
finite horizon: convexity certification, game Riccati solving with
strong-regularity monitoring, saddle feedback synthesis, and verification by
algebraic residuals, a discrete-time oracle, and Monte-Carlo simulation."""

from .core import (
    COND_LIMIT, SYM_RTOL, CoefficientPath, ContractViolation, CostWeights,
    DomainError, GameProblem, LqgError, SingularBlockError, StateDynamics,
    TimeGrid, assemble_blocks, block_inverse, check_symmetric,
    coefficients, eval_coeff, sym, sym_eig_extremes,
)
from .riccati import (
    BlowUpError, CertificateReport, ComparisonReport, PartialPath,
    RegularityError, RegularizedFamily, RiccatiSolution, SolverConfig,
    certify_A3, comparison_check, local_radius, regularized_problem,
    riccati_rhs, solve_lambda_family, solve_riccati,
)
from .synthesis import (
    AdjointTriple, ClosedLoopSystem, FeedbackLaw, adjoint_from_state,
    closed_loop, fbsde_residual, feedback_gain, game_value, mean_state_path,
)
from .evaluation import (
    ControlLaw, CostEstimate, OracleRegularityError, PathEnsemble,
    SaddleReport, SimulationDiverged, brownian_increments, discrete_oracle,
    estimate_cost, falsify_lower_value, perturbation_directions, simulate,
    verify_saddle,
)
from .deterministic import (
    EquivalenceReport, FundamentalMatrix, HamiltonianPath,
    NotDeterministicError, RepresentationResult, RepresentationSingularError,
    equivalence_report, fundamental_matrix, hamiltonian, representation,
)
from .fixtures import (
    EXAMPLE_NAMES, example_problem, random_certified_problem, random_problem,
)

__version__ = "0.1.0"
