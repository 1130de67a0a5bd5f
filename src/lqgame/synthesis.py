"""Saddle feedback synthesis from a game Riccati solution, plus the
algebraic stationarity checks that verify it.  The gain is solved from the
control rows the backward pass keeps; each function works on all grid nodes
at once, and only the mean state path is integrated step by step."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ContractViolation, GameProblem, TimeGrid, coefficients, linear_flow,
    _check_fit, _solve_regular, _start_state,
)
from .riccati import RiccatiSolution


@dataclass(frozen=True, eq=False)
class FeedbackLaw:
    """Time-varying gain Theta(t_k) whose first m1 rows drive player 1 and
    last m2 rows drive player 2."""

    grid: TimeGrid
    theta_nodes: np.ndarray   # (n_steps+1, m1+m2, n)
    m1: int
    m2: int

    def __post_init__(self):
        shape = np.shape(self.theta_nodes)
        want = (self.grid.n_steps + 1, self.m1 + self.m2)
        if (len(shape) != 3 or shape[:2] != want
                or not np.isfinite(self.theta_nodes).all()):
            raise ContractViolation(f"feedback gains must be finite and "
                                    f"shaped {want} + (n,), got {shape}")

    @property
    def fit(self) -> tuple:
        return (self.theta_nodes.shape[-1], self.m1, self.m2,
                self.grid.horizon_T, self.grid.n_steps)


@dataclass(frozen=True, eq=False)
class ClosedLoopSystem:
    """Closed-loop drift A + B Theta and diffusion C + D Theta per node."""

    grid: TimeGrid
    drift_nodes: np.ndarray
    diffusion_nodes: np.ndarray


def feedback_gain(problem: GameProblem, sol: RiccatiSolution) -> FeedbackLaw:
    """Theta(t_k) = -(R + D'PD)^{-1} (B'P + D'PC + S) at every node, solved
    from the solution's control rows.  Raises ContractViolation unless sol
    is a regular game-kind solution of the problem's (n, m1, m2), and
    SingularBlockError (block "R") at the first node where R + D'PD has
    condition above COND_LIMIT."""
    if sol.kind != "game":
        raise ContractViolation("feedback synthesis needs a game-kind solution")
    _check_fit("sol", sol.fit, problem.fit)
    if sol.margin1_nodes.min() <= 0 or sol.margin2_nodes.max() >= 0:
        raise ContractViolation("Riccati solution has non-regular nodes")
    S_P, R_P = np.split(sol.control_nodes, [problem.n], axis=-1)
    return FeedbackLaw(grid=sol.grid, theta_nodes=-_solve_regular(R_P, S_P),
                       m1=problem.m1, m2=problem.m2)


def game_value(sol: RiccatiSolution, x) -> float:
    """Saddle value <P(0) x, x> of the game started at x.  Raises
    ContractViolation unless the start state ``x`` is a finite vector of
    length n."""
    if sol.kind != "game":
        raise ContractViolation("value requires a game-kind solution")
    P0 = sol.P0()
    x = _start_state(x, P0.shape[0])
    return float(x @ P0 @ x)


def closed_loop(problem: GameProblem, law: FeedbackLaw) -> ClosedLoopSystem:
    """Form A + B Theta and C + D Theta at every node of the law's grid."""
    _check_fit("law", law.fit, problem.fit)
    table = coefficients(problem, law.grid.nodes)
    return ClosedLoopSystem(grid=law.grid,
                            drift_nodes=table.A + table.B @ law.theta_nodes,
                            diffusion_nodes=table.C + table.D @ law.theta_nodes)


def mean_state_path(system: ClosedLoopSystem, x) -> np.ndarray:
    """Mean closed-loop flow dX/dt = (A + B Theta) X, integrated by the same
    fixed-step fourth-order scheme as the Riccati solver.  Raises
    ContractViolation unless the start state ``x`` is a finite vector of
    length n."""
    x = _start_state(x, system.drift_nodes.shape[1])
    return linear_flow(system.drift_nodes, system.grid.horizon_T, x)


def fbsde_residual(problem: GameProblem, sol: RiccatiSolution,
                   law: FeedbackLaw, X_path: np.ndarray) -> np.ndarray:
    """Per-node norm of the stationarity defect B'Y + D'Z + S X + R u along
    a state path on the solution grid, with u = Theta X and the adjoint
    pair Y = P X, Z = P (C X + D u) reconstructed from P.  Vanishes up to
    rounding for the synthesized saddle law."""
    _check_fit("sol", sol.fit, problem.fit)
    _check_fit("law", law.fit, sol.fit)
    X = np.atleast_2d(np.asarray(X_path, dtype=float))
    if X.shape != (sol.grid.n_steps + 1, problem.n):
        raise ContractViolation(f"state path has shape {X.shape}, expected "
                                f"{(sol.grid.n_steps + 1, problem.n)}")
    X = X[:, :, None]
    table = coefficients(problem, sol.grid.nodes)
    u = law.theta_nodes @ X
    Y = sol.P_nodes @ X
    Z = sol.P_nodes @ (table.C @ X + table.D @ u)
    defect = table.B.mT @ Y + table.D.mT @ Z + table.S @ X + table.R @ u
    # |v| as sqrt(v'v), the dot product np.linalg.norm takes of one vector
    return np.sqrt(defect.mT @ defect)[:, 0, 0]
