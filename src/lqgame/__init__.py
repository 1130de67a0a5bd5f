"""Two-person zero-sum stochastic linear-quadratic differential games on a
finite horizon: convexity certification, game Riccati solving with
strong-regularity monitoring, saddle feedback synthesis, and verification by
algebraic residuals, a discrete-time oracle, and Monte-Carlo simulation."""

from .core import (
    COND_LIMIT, SYM_RTOL, CoefficientPath, ContractViolation, CostWeights,
    DomainError, GameProblem, LqgError, SingularBlockError, StateDynamics,
    TimeGrid, check_symmetric, coefficients, sym,
)
from .riccati import (
    BlowUpError, CertificateReport, ComparisonReport, PartialPath,
    RegularityError, RegularizedFamily, RiccatiSolution, SolverConfig,
    certify_A3, comparison_check, regularized_problem, solve_lambda_family,
    solve_riccati,
)
from .synthesis import (
    ClosedLoopSystem, FeedbackLaw, closed_loop, fbsde_residual, feedback_gain,
    game_value, mean_state_path,
)
from .evaluation import (
    ControlLaw, CostEstimate, OracleRegularityError, PathEnsemble,
    SaddleReport, SimulationDiverged, brownian_increments, discrete_oracle,
    estimate_cost, falsify_lower_value, perturbation_directions, simulate,
    verify_saddle,
)
from .deterministic import (
    EquivalenceReport, NotDeterministicError, RepresentationResult,
    RepresentationSingularError, equivalence_report, fundamental_matrix,
    hamiltonian, representation,
)
from .fixtures import (
    EXAMPLE_NAMES, example_problem, random_certified_problem, random_problem,
)

__version__ = "0.1.0"
