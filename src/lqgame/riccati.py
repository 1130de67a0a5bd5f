"""Backward integration of the game Riccati equation and its two
single-player companions, with strong-regularity monitoring.

The integrator is a fixed-step classical fourth-order scheme running
backward from the terminal condition, symmetrizing after every stage.
Regularity margins (lambda_min of the player-1 control block, lambda_max of
the player-2 block) are checked at every stage, not only at nodes, so a sign
loss between nodes is caught at the stage time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    CoefficientPath, CoefficientTable, ContractViolation, CostWeights,
    GameProblem, LqgError, TimeGrid, assemble, coefficients, interpolate,
    sym, _eig_extremes, _sample_stack,
)

KINDS = ("game", "player1", "player2")


@dataclass
class PartialPath:
    """Trajectory piece carried by solver failures: nodes from the failure
    time (exclusive of the failing stage) up to T."""

    times: np.ndarray
    P_nodes: np.ndarray
    margin1_nodes: np.ndarray
    margin2_nodes: np.ndarray


class RegularityError(LqgError):
    """A regularity margin crossed its eps_reg threshold during integration."""

    def __init__(self, time: float, side: int, margin: float,
                 partial: PartialPath | None = None):
        self.time = time
        self.side = side
        self.margin = margin
        self.partial = partial
        super().__init__(
            f"player-{side} regularity margin {margin:.6e} violated at t={time:.6g}")


class BlowUpError(LqgError):
    """The Frobenius norm of P exceeded the blow-up cap."""

    def __init__(self, time: float, norm: float, partial: PartialPath | None = None):
        self.time = time
        self.norm = norm
        self.partial = partial
        super().__init__(f"|P|_F = {norm:.3e} exceeded cap at t={time:.6g}")


@dataclass(frozen=True)
class SolverConfig:
    eps_reg: float = 1e-6
    blowup_cap: float = 1e8
    n_steps: int = 2000

    def __post_init__(self):
        if not 0 < self.eps_reg < np.inf:
            raise ContractViolation("eps_reg must be finite and positive")
        if not self.blowup_cap > 1:
            raise ContractViolation("blowup_cap must exceed 1")
        if self.n_steps < 2:
            raise ContractViolation("n_steps must be >= 2")


@dataclass(frozen=True, eq=False)
class RiccatiSolution:
    """Symmetric matrix path P(t_k) on a uniform grid plus per-node
    regularity margins."""

    grid: TimeGrid
    P_nodes: np.ndarray          # (n_steps+1, n, n)
    margin1_nodes: np.ndarray    # lambda_min(R11 + D1' P D1) per node
    margin2_nodes: np.ndarray    # lambda_max(R22 + D2' P D2) per node
    kind: str

    def P0(self) -> np.ndarray:
        return self.P_nodes[0]

    def P_at(self, t: float) -> np.ndarray:
        """Linear interpolation of the node values."""
        return interpolate(self.P_nodes, self.grid.horizon_T, t)[0]


def _margin_check(kind: str, t: float, margin1: float, margin2: float,
                  eps_reg: float) -> None:
    # Margins exactly at +-eps_reg count as violations (strict inequality).
    if kind in ("game", "player1") and margin1 <= eps_reg:
        raise RegularityError(t, 1, margin1)
    if kind in ("game", "player2") and margin2 >= -eps_reg:
        raise RegularityError(t, 2, margin2)


def _field(row: CoefficientTable, P: np.ndarray, R_P: np.ndarray,
           S_P: np.ndarray, kind: str, m1: int) -> np.ndarray:
    """dP/dt at one row of a coefficient table, given R_P and S_P there."""
    if kind == "player1":
        Rk, Sk = R_P[:m1, :m1], S_P[:m1, :]
    elif kind == "player2":
        Rk, Sk = R_P[m1:, m1:], S_P[m1:, :]
    else:
        Rk, Sk = R_P, S_P
    A, C, Q = row.A, row.C, row.Q
    F = -(P @ A + A.T @ P + C.T @ P @ C + Q - Sk.T @ np.linalg.solve(Rk, Sk))
    return sym(F)


def _rhs(row: CoefficientTable, t: float, P: np.ndarray, kind: str,
         m1: int, eps_reg: float) -> np.ndarray:
    R_P, S_P, margins = assemble(row, P, m1)
    _margin_check(kind, t, *margins, eps_reg)
    return _field(row, P, R_P, S_P, kind, m1)


def riccati_rhs(problem: GameProblem, t: float, P: np.ndarray, kind: str,
                eps_reg: float = 1e-6) -> np.ndarray:
    """Time derivative dP/dt of the (game or single-player) Riccati equation:

        -[P A + A'P + C'P C + Q - S_P' R_P^{-1} S_P]

    with the kind-appropriate sub-blocks of B, D, S, R.  Raises
    RegularityError when the relevant margin is at or past eps_reg.
    """
    if kind not in KINDS:
        raise ContractViolation(f"unknown kind {kind!r}")
    return _rhs(coefficients(problem, t).row(0), t, np.atleast_2d(P), kind,
                problem.m1, eps_reg)


def solve_riccati(problem: GameProblem, config: SolverConfig,
                  kind: str = "game") -> RiccatiSolution:
    """Integrate the Riccati equation backward from P(T) = G.

    On a margin violation or blow-up the raised error carries the partial
    path from the failure time up to T.
    """
    if kind not in KINDS:
        raise ContractViolation(f"unknown kind {kind!r}")
    grid = TimeGrid(problem.horizon_T, config.n_steps)
    nodes = grid.nodes
    h = grid.dt
    eps = config.eps_reg
    m1 = problem.m1

    # stage times: node t_k in row 2k, midpoint of [t_k, t_k+1] in row 2k+1
    times = np.empty(2 * grid.n_steps + 1)
    times[0::2] = nodes
    times[1::2] = 0.5 * (nodes[:-1] + nodes[1:])
    table = coefficients(problem, times)

    # a node's assembly serves both its margin check and the next step's k1
    P = np.array(problem.cost.G)
    node = table.row(2 * grid.n_steps)
    R_P, S_P, margins = assemble(node, P, m1)
    times_done = [nodes[-1]]
    P_done = [P]
    m_done = [margins]

    def partial() -> PartialPath:
        return PartialPath(
            times=np.array(times_done[::-1]),
            P_nodes=np.array(P_done[::-1]),
            margin1_nodes=np.array([m[0] for m in m_done[::-1]]),
            margin2_nodes=np.array([m[1] for m in m_done[::-1]]),
        )

    try:
        _margin_check(kind, nodes[-1], *margins, eps)
        for k in range(grid.n_steps, 0, -1):
            t0 = nodes[k - 1]
            mid, prev = table.row(2 * k - 1), table.row(2 * k - 2)
            k1 = _field(node, P, R_P, S_P, kind, m1)
            k2 = _rhs(mid, times[2 * k - 1], sym(P - 0.5 * h * k1), kind, m1, eps)
            k3 = _rhs(mid, times[2 * k - 1], sym(P - 0.5 * h * k2), kind, m1, eps)
            k4 = _rhs(prev, t0, sym(P - h * k3), kind, m1, eps)
            P = sym(P - (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
            norm = float(np.linalg.norm(P))
            if not np.isfinite(norm) or norm > config.blowup_cap:
                raise BlowUpError(t0, norm)
            node = prev
            R_P, S_P, margins = assemble(node, P, m1)
            _margin_check(kind, t0, *margins, eps)
            times_done.append(t0)
            P_done.append(P)
            m_done.append(margins)
    except RegularityError as err:
        raise RegularityError(err.time, err.side, err.margin, partial()) from None
    except BlowUpError as err:
        raise BlowUpError(err.time, err.norm, partial()) from None

    return RiccatiSolution(
        grid=grid,
        P_nodes=np.array(P_done[::-1]),
        margin1_nodes=np.array([m[0] for m in m_done[::-1]]),
        margin2_nodes=np.array([m[1] for m in m_done[::-1]]),
        kind=kind,
    )


@dataclass
class CertificateReport:
    """Outcome of the uniform convexity/concavity sufficiency check."""

    status: str                       # CERTIFIED or NOT_CERTIFIED
    min_margin1: float | None = None
    max_margin2: float | None = None
    p1: RiccatiSolution | None = None
    p2: RiccatiSolution | None = None
    failing_side: int | None = None
    failure_time: float | None = None
    failure_reason: str | None = None

    @property
    def certified(self) -> bool:
        return self.status == "CERTIFIED"


def certify_A3(problem: GameProblem, config: SolverConfig) -> CertificateReport:
    """Solve the two frozen-opponent Riccati equations.

    Success of both (with strong regularity) is sufficient evidence for
    saddle synthesis to proceed; failure of either yields NOT_CERTIFIED with
    the side and time.  No converse claim is made: game-Riccati solvability
    does not imply this certificate.
    """
    try:
        p1 = solve_riccati(problem, config, "player1")
    except (RegularityError, BlowUpError) as err:
        return CertificateReport(
            status="NOT_CERTIFIED", failing_side=1, failure_time=err.time,
            failure_reason=type(err).__name__)
    try:
        p2 = solve_riccati(problem, config, "player2")
    except (RegularityError, BlowUpError) as err:
        return CertificateReport(
            status="NOT_CERTIFIED", p1=p1, failing_side=2, failure_time=err.time,
            failure_reason=type(err).__name__)
    return CertificateReport(
        status="CERTIFIED",
        min_margin1=float(p1.margin1_nodes.min()),
        max_margin2=float(p2.margin2_nodes.max()),
        p1=p1, p2=p2)


@dataclass
class ComparisonReport:
    """Per-node sandwich margins lambda_min(P - P1) and lambda_min(P2 - P)."""

    min_eig_lower: np.ndarray
    min_eig_upper: np.ndarray
    tolerance: float
    passed: bool
    worst_node: int

    def worst_margins(self) -> tuple[float, float]:
        return (float(self.min_eig_lower.min()), float(self.min_eig_upper.min()))


def comparison_check(game: RiccatiSolution, p1: RiccatiSolution,
                     p2: RiccatiSolution, tol: float = 1e-8) -> ComparisonReport:
    """Check the sandwich P1 <= P <= P2 node-by-node."""
    if not (game.grid.same_as(p1.grid) and game.grid.same_as(p2.grid)):
        raise ContractViolation("comparison_check requires a common grid")
    lower = _eig_extremes(sym(game.P_nodes - p1.P_nodes))[0]
    upper = _eig_extremes(sym(p2.P_nodes - game.P_nodes))[0]
    both = np.minimum(lower, upper)
    worst = int(np.argmin(both))
    return ComparisonReport(
        min_eig_lower=lower, min_eig_upper=upper, tolerance=tol,
        passed=bool(lower.min() >= -tol and upper.min() >= -tol),
        worst_node=worst)


def _shift_path(path: CoefficientPath, delta: float) -> CoefficientPath:
    """Add delta * I to every sample of a square coefficient path."""
    eye = np.eye(path.rows)
    if path.kind == "constant":
        return CoefficientPath.constant(path.values + delta * eye)
    return CoefficientPath.sampled(_sample_stack(path) + delta * eye, path.span)


def regularized_problem(problem: GameProblem, lam: float) -> GameProblem:
    """The problem with R11 + lam*I and R22 - lam*I substituted."""
    c = problem.cost
    cost = CostWeights(
        G=c.G, Q=c.Q, S1=c.S1, S2=c.S2,
        R11=_shift_path(c.R11, lam), R12=c.R12, R21=c.R21,
        R22=_shift_path(c.R22, -lam))
    return GameProblem(dynamics=problem.dynamics, cost=cost,
                       horizon_T=problem.horizon_T)


@dataclass
class RegularizedFamily:
    """Game Riccati solves across a decreasing sequence of penalty levels."""

    lambdas: list[float]
    solutions: list[RiccatiSolution | None]
    failures: list[str | None]
    P0_values: list[np.ndarray | None] = field(default_factory=list)


def solve_lambda_family(problem: GameProblem, lambdas,
                        config: SolverConfig) -> RegularizedFamily:
    """Solve the game Riccati equation for each penalty level, one level
    after another.

    Per-level failures are recorded, not raised: level j's solution equals
    ``solve_riccati(regularized_problem(problem, lambdas[j]), config)``.
    """
    lambdas = [float(l) for l in lambdas]
    if any(l <= 0 for l in lambdas):
        raise ContractViolation("all penalty levels must be positive")
    if any(b >= a for a, b in zip(lambdas, lambdas[1:])):
        raise ContractViolation("penalty levels must be strictly decreasing")

    def solve_one(lam):
        try:
            return solve_riccati(regularized_problem(problem, lam), config, "game"), None
        except (RegularityError, BlowUpError) as err:
            return None, f"{type(err).__name__}: {err}"

    outcomes = [solve_one(lam) for lam in lambdas]
    solutions = [s for s, _ in outcomes]
    failures = [f for _, f in outcomes]
    P0 = [s.P0() if s is not None else None for s in solutions]
    return RegularizedFamily(lambdas=lambdas, solutions=solutions,
                             failures=failures, P0_values=P0)


def local_radius(problem: GameProblem, alpha: float) -> float:
    """Diagnostic ball radius alpha / (4 (|D|_inf^2 + 1)) for the local
    solvability estimate; informational only, never used to pick steps."""
    d1 = _sample_stack(problem.dynamics.D1)
    d2 = _sample_stack(problem.dynamics.D2)
    d_inf_sq = max(float(np.sum(m * m)) for m in d1) + \
        max(float(np.sum(m * m)) for m in d2)
    return alpha / (4.0 * (d_inf_sq + 1.0))
