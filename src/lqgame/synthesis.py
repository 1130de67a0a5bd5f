"""Saddle feedback synthesis from a game Riccati solution, plus the
algebraic stationarity checks that verify it.  Each function applies the
stacked kernels of ``core`` to all grid nodes at once; only the mean state
path is integrated step by step."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ContractViolation, GameProblem, TimeGrid, assemble, block_inverse,
    coefficients, interpolate, linear_flow, _T,
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
        if not np.all(np.isfinite(self.theta_nodes)):
            raise ContractViolation("feedback gains must be finite")
        if self.theta_nodes.shape[0] != self.grid.n_steps + 1:
            raise ContractViolation("one gain per grid node required")

    def theta1_nodes(self) -> np.ndarray:
        return self.theta_nodes[:, :self.m1, :]

    def theta2_nodes(self) -> np.ndarray:
        return self.theta_nodes[:, self.m1:, :]

    def theta_at(self, t: float) -> np.ndarray:
        """Linear interpolation between node gains."""
        return interpolate(self.theta_nodes, self.grid.horizon_T, t)[0]


@dataclass(frozen=True, eq=False)
class ClosedLoopSystem:
    """Closed-loop drift A + B Theta and diffusion C + D Theta per node."""

    grid: TimeGrid
    drift_nodes: np.ndarray
    diffusion_nodes: np.ndarray


@dataclass(frozen=True, eq=False)
class AdjointTriple:
    """State, costate, and martingale-integrand paths reconstructed from the
    Riccati solution along a state path."""

    X_nodes: np.ndarray
    Y_nodes: np.ndarray
    Z_nodes: np.ndarray


def feedback_gain(problem: GameProblem, sol: RiccatiSolution) -> FeedbackLaw:
    """Theta(t_k) = -(R + D'PD)^{-1} (B'P + D'PC + S) at every node."""
    if sol.kind != "game":
        raise ContractViolation("feedback synthesis needs a game-kind solution")
    if sol.margin1_nodes.min() <= 0 or sol.margin2_nodes.max() >= 0:
        raise ContractViolation("Riccati solution has non-regular nodes")
    m1 = problem.m1
    table = coefficients(problem, sol.grid.nodes)
    R_P, S_P, _ = assemble(table, sol.P_nodes, m1)
    R_inv = block_inverse(R_P[:, :m1, :m1], R_P[:, :m1, m1:], R_P[:, m1:, m1:])
    return FeedbackLaw(grid=sol.grid, theta_nodes=-R_inv @ S_P,
                       m1=problem.m1, m2=problem.m2)


def game_value(sol: RiccatiSolution, x) -> float:
    """Saddle value <P(0) x, x> of the game started at x."""
    if sol.kind != "game":
        raise ContractViolation("value requires a game-kind solution")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return float(x @ sol.P0() @ x)


def closed_loop(problem: GameProblem, law: FeedbackLaw) -> ClosedLoopSystem:
    """Form A + B Theta and C + D Theta at every node of the law's grid."""
    table = coefficients(problem, law.grid.nodes)
    return ClosedLoopSystem(grid=law.grid,
                            drift_nodes=table.A + table.B @ law.theta_nodes,
                            diffusion_nodes=table.C + table.D @ law.theta_nodes)


def mean_state_path(system: ClosedLoopSystem, x) -> np.ndarray:
    """Mean closed-loop flow dX/dt = (A + B Theta) X, integrated by the same
    fixed-step fourth-order scheme as the Riccati solver."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return linear_flow(system.drift_nodes, system.grid.horizon_T, x)


def adjoint_from_state(problem: GameProblem, sol: RiccatiSolution,
                       law: FeedbackLaw, X_path: np.ndarray) -> AdjointTriple:
    """Reconstruct Y = P X and Z = P (C X + D u) with u = Theta X along a
    state path on the solution grid."""
    X_path = np.atleast_2d(np.asarray(X_path, dtype=float))
    if X_path.shape[0] != sol.grid.n_steps + 1:
        raise ContractViolation("state path must live on the solution grid")
    table = coefficients(problem, sol.grid.nodes)
    X = X_path[:, :, None]
    u = law.theta_nodes @ X
    Y = sol.P_nodes @ X
    Z = sol.P_nodes @ (table.C @ X + table.D @ u)
    return AdjointTriple(X_nodes=X_path, Y_nodes=Y[:, :, 0], Z_nodes=Z[:, :, 0])


def fbsde_residual(problem: GameProblem, sol: RiccatiSolution,
                   law: FeedbackLaw, X_path: np.ndarray) -> np.ndarray:
    """Per-node norm of the stationarity defect B'Y + D'Z + S X + R u along
    a state path, with Y, Z reconstructed from P.  Vanishes up to rounding
    for the synthesized saddle law."""
    if not sol.grid.same_as(law.grid):
        raise ContractViolation("solution and law grids differ")
    triple = adjoint_from_state(problem, sol, law, X_path)
    table = coefficients(problem, sol.grid.nodes)
    X, Y, Z = (V[:, :, None] for V in (triple.X_nodes, triple.Y_nodes, triple.Z_nodes))
    u = law.theta_nodes @ X
    defect = _T(table.B) @ Y + _T(table.D) @ Z + table.S @ X + table.R @ u
    # |v| as sqrt(v'v), the dot product np.linalg.norm takes of one vector
    return np.sqrt(_T(defect) @ defect)[:, 0, 0]
