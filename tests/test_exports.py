import types

import lqgame

# Every name the package exports, by stage.  Adding or removing one is a
# change of the public surface and has to edit this list.
EXPORTS = {
    # containers, errors and kernels of the problem
    "COND_LIMIT", "SYM_RTOL", "CoefficientPath", "ContractViolation",
    "CostWeights", "DomainError", "GameProblem", "LqgError",
    "SingularBlockError", "StateDynamics", "TimeGrid", "check_symmetric",
    "coefficients", "sym",
    # certify and solve
    "BlowUpError", "CertificateReport", "ComparisonReport", "PartialPath",
    "RegularityError", "RegularizedFamily", "RiccatiSolution", "SolverConfig",
    "certify_A3", "comparison_check", "regularized_problem",
    "solve_lambda_family", "solve_riccati",
    # synthesize
    "ClosedLoopSystem", "FeedbackLaw", "closed_loop", "fbsde_residual",
    "feedback_gain", "game_value", "mean_state_path",
    # verify
    "ControlLaw", "CostEstimate", "OracleRegularityError", "PathEnsemble",
    "SaddleReport", "SimulationDiverged", "brownian_increments",
    "discrete_oracle", "estimate_cost", "falsify_lower_value",
    "perturbation_directions", "simulate", "verify_saddle",
    # noise-free cross-check
    "EquivalenceReport", "NotDeterministicError", "RepresentationResult",
    "RepresentationSingularError", "equivalence_report", "fundamental_matrix",
    "hamiltonian", "representation",
    # bundled problems
    "EXAMPLE_NAMES", "example_problem", "random_certified_problem",
    "random_problem",
}

# what the benchmark under lqbench/ calls
BENCHMARK_NAMES = {
    "certify_A3", "solve_riccati", "comparison_check", "feedback_gain",
    "game_value", "closed_loop", "mean_state_path", "fbsde_residual",
    "discrete_oracle", "equivalence_report", "simulate", "estimate_cost",
    "verify_saddle", "solve_lambda_family", "regularized_problem",
    "ControlLaw", "TimeGrid", "SolverConfig", "RegularityError",
    "BlowUpError", "CoefficientPath", "CostWeights", "GameProblem",
    "StateDynamics",
}


def test_exports_equal_the_list():
    public = {name for name, value in vars(lqgame).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public == EXPORTS


def test_benchmark_names_exported():
    assert BENCHMARK_NAMES <= EXPORTS
