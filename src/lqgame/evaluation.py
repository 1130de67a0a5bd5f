"""Monte-Carlo evaluation of the game: Euler--Maruyama path simulation,
cost quadrature, empirical saddle verification with common random numbers,
an exact discrete-time oracle, and the lower-value falsifier."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    ContractViolation, GameProblem, LqgError, TimeGrid, coefficients,
    interpolate, sym, sym_eig_extremes,
)
from .riccati import RiccatiSolution
from .synthesis import FeedbackLaw, game_value


class SimulationDiverged(LqgError):
    """A simulated state became non-finite."""

    def __init__(self, path: int, step: int):
        self.path = path
        self.step = step
        super().__init__(f"state overflow on path {path} at step {step}")


class OracleRegularityError(LqgError):
    """A step of the discrete-time game lost the required definiteness."""

    def __init__(self, step: int, margin: float):
        self.step = step
        self.margin = margin
        super().__init__(
            f"discrete player blocks lose definiteness at step {step} "
            f"(margin {margin:.3e})")


@dataclass(frozen=True, eq=False)
class ControlLaw:
    """One player's control: state feedback rows, a deterministic sampled
    path on the simulation grid, or a constant vector."""

    kind: str                      # feedback | open_loop_deterministic | constant
    gains: np.ndarray | None = None    # (n_nodes, m, n) for feedback
    path: np.ndarray | None = None     # (n_nodes, m) for open-loop
    value: np.ndarray | None = None    # (m,) for constant

    @classmethod
    def from_feedback(cls, law: FeedbackLaw, player: int,
                      grid: TimeGrid) -> "ControlLaw":
        """Extract one player's rows, resampled onto the simulation grid."""
        if player not in (1, 2):
            raise ContractViolation("player must be 1 or 2")
        gains = interpolate(law.theta_nodes, law.grid.horizon_T, grid.nodes)
        rows = gains[:, :law.m1, :] if player == 1 else gains[:, law.m1:, :]
        return cls(kind="feedback", gains=rows)

    @classmethod
    def constant(cls, value) -> "ControlLaw":
        return cls(kind="constant", value=np.atleast_1d(np.asarray(value, float)))

    @classmethod
    def sampled(cls, path) -> "ControlLaw":
        return cls(kind="open_loop_deterministic",
                   path=np.atleast_2d(np.asarray(path, float)))

    def dim(self) -> int:
        if self.kind == "feedback":
            return self.gains.shape[1]
        if self.kind == "open_loop_deterministic":
            return self.path.shape[1]
        return self.value.shape[0]

    def as_callable(self, grid: TimeGrid):
        """(step k, states (n_paths, n)) -> controls (n_paths, m)."""
        if self.kind == "feedback":
            if self.gains.shape[0] != grid.n_steps + 1:
                raise ContractViolation("feedback gains not sampled on this grid")
            gains = self.gains
            return lambda k, X: X @ gains[k].T
        if self.kind == "open_loop_deterministic":
            if self.path.shape[0] != grid.n_steps + 1:
                raise ContractViolation("control path not sampled on this grid")
            path = self.path
            return lambda k, X: np.broadcast_to(path[k], (X.shape[0], path.shape[1]))
        value = self.value
        return lambda k, X: np.broadcast_to(value, (X.shape[0], value.shape[0]))


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Simulated trajectories with their seed record, so the identical
    Brownian increments can be reused across control variants."""

    grid: TimeGrid
    n_paths: int
    seed: int
    increments: np.ndarray   # (n_paths, n_steps)
    X_paths: np.ndarray      # (n_paths, n_nodes, n)
    u1_paths: np.ndarray     # (n_paths, n_nodes, m1)
    u2_paths: np.ndarray     # (n_paths, n_nodes, m2)


@dataclass(frozen=True)
class CostEstimate:
    mean: float
    std_error: float
    n_paths: int


@dataclass
class SaddleReport:
    """Empirical check of the two saddle inequalities plus the value match."""

    value_analytic: float
    value_mc: CostEstimate
    gaps_player1: list[CostEstimate]
    gaps_player2: list[CostEstimate]
    n_sigma: float = 3.0
    verdict: str = field(init=False)

    def __post_init__(self):
        ok = abs(self.value_mc.mean - self.value_analytic) \
            <= self.n_sigma * self.value_mc.std_error
        for g in self.gaps_player1:
            ok = ok and g.mean >= -self.n_sigma * g.std_error
        for g in self.gaps_player2:
            ok = ok and g.mean <= self.n_sigma * g.std_error
        self.verdict = "PASS" if ok else "FAIL"


def brownian_increments(seed: int, n_paths: int, grid: TimeGrid) -> np.ndarray:
    """Per-path increments dW_k ~ N(0, dt) from substreams keyed by
    (seed, path index); independent of evaluation order."""
    children = np.random.SeedSequence(seed).spawn(n_paths)
    scale = np.sqrt(grid.dt)
    return np.stack([
        np.random.default_rng(c).normal(0.0, scale, grid.n_steps)
        for c in children])


def _simulate_core(problem: GameProblem, u1_fn, u2_fn, x, grid: TimeGrid,
                   increments: np.ndarray):
    """Vectorized Euler--Maruyama over an ensemble; controls are callables
    (step, states) -> per-path control matrices."""
    n_paths = increments.shape[0]
    x = np.atleast_1d(np.asarray(x, float))
    dt = grid.dt
    n_nodes = grid.n_steps + 1
    n, m1, m2 = problem.n, problem.m1, problem.m2

    # combined step matrix: (drift; diffusion) = K_k (x; u1; u2)
    table = coefficients(problem, grid.nodes[:-1])
    K = np.block([[table.A, table.B], [table.C, table.D]])

    X = np.broadcast_to(x, (n_paths, n)).copy()
    # time-major histories keep each step's write contiguous; swap back at
    # the boundary (a view, no copy)
    X_hist = np.empty((n_nodes, n_paths, n))
    u1_hist = np.empty((n_nodes, n_paths, m1))
    u2_hist = np.empty((n_nodes, n_paths, m2))
    X_hist[0] = X
    for k in range(grid.n_steps):
        u1 = u1_fn(k, X)
        u2 = u2_fn(k, X)
        with np.errstate(over="ignore", invalid="ignore"):
            Y = np.concatenate([X, u1, u2], axis=1) @ K[k].T
            X = X + dt * Y[:, :n] + increments[:, k, None] * Y[:, n:]
        if not np.isfinite(X.sum()):
            bad = ~np.isfinite(X).all(axis=1)
            raise SimulationDiverged(int(np.argmax(bad)), k + 1)
        u1_hist[k] = u1
        u2_hist[k] = u2
        X_hist[k + 1] = X
    u1_hist[-1] = u1_fn(grid.n_steps, X)
    u2_hist[-1] = u2_fn(grid.n_steps, X)
    return (X_hist.swapaxes(0, 1), u1_hist.swapaxes(0, 1),
            u2_hist.swapaxes(0, 1))


def simulate(problem: GameProblem, u1: ControlLaw, u2: ControlLaw, x,
             grid: TimeGrid, n_paths: int, seed: int) -> PathEnsemble:
    """Simulate the controlled SDE on an ensemble of Brownian paths."""
    if n_paths < 1:
        raise ContractViolation("n_paths must be >= 1")
    if u1.dim() != problem.m1 or u2.dim() != problem.m2:
        raise ContractViolation("control dimensions do not match the problem")
    increments = brownian_increments(seed, n_paths, grid)
    X, U1, U2 = _simulate_core(problem, u1.as_callable(grid),
                               u2.as_callable(grid), x, grid, increments)
    return PathEnsemble(grid=grid, n_paths=n_paths, seed=seed,
                        increments=increments, X_paths=X,
                        u1_paths=U1, u2_paths=U2)


def _per_path_costs(problem: GameProblem, grid: TimeGrid, X, U1, U2) -> np.ndarray:
    """Terminal cost plus trapezoid quadrature of the running integrand,
    one value per path."""
    n_nodes = grid.n_steps + 1
    # one symmetric block matrix per node turns the integrand into a single
    # quadratic form in z = (x, u1, u2)
    table = coefficients(problem, grid.nodes)
    M = np.block([[table.Q, table.S.swapaxes(1, 2)], [table.S, table.R]])
    # batched quadratic form z'Mz, chunked over time to bound memory
    Z = np.concatenate([X, U1, U2], axis=2).swapaxes(0, 1)   # (k, p, d)
    ell = np.empty((n_nodes, X.shape[0]))
    chunk = 256
    for s in range(0, n_nodes, chunk):
        e = min(s + chunk, n_nodes)
        Zc = np.ascontiguousarray(Z[s:e])
        ell[s:e] = (np.matmul(Zc, M[s:e]) * Zc).sum(axis=2)
    running = np.trapezoid(ell, dx=grid.dt, axis=0)
    XT = X[:, -1, :]
    terminal = np.einsum("pi,ij,pj->p", XT, problem.cost.G, XT)
    return terminal + running


def _estimate(values: np.ndarray) -> CostEstimate:
    n = values.shape[0]
    se = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return CostEstimate(mean=float(values.mean()), std_error=se, n_paths=n)


def estimate_cost(problem: GameProblem, ensemble: PathEnsemble) -> CostEstimate:
    """Sample mean and standard error of the quadratic payoff."""
    costs = _per_path_costs(problem, ensemble.grid, ensemble.X_paths,
                            ensemble.u1_paths, ensemble.u2_paths)
    return _estimate(costs)


def perturbation_directions(seed: int, count: int, grid: TimeGrid,
                            m: int) -> list[np.ndarray]:
    """Deterministic sampled control paths with unit L2([0,T]) norm."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(0xD1,)))
    out = []
    for _ in range(count):
        v = rng.normal(size=(grid.n_steps + 1, m))
        norm_sq = np.trapezoid(np.sum(v * v, axis=1), dx=grid.dt)
        out.append(v / np.sqrt(norm_sq))
    return out


def verify_saddle(problem: GameProblem, sol: RiccatiSolution, law: FeedbackLaw,
                  x, n_perturbations: int, n_paths: int, seed: int,
                  sim_steps: int = 200, n_sigma: float = 3.0) -> SaddleReport:
    """Simulate the closed-loop saddle pair, then re-simulate unilateral
    deviations with the same Brownian increments (common random numbers) and
    report the perturbation-gap statistics."""
    grid = TimeGrid(problem.horizon_T, sim_steps)
    u1_fb = ControlLaw.from_feedback(law, 1, grid)
    u2_fb = ControlLaw.from_feedback(law, 2, grid)
    base = simulate(problem, u1_fb, u2_fb, x, grid, n_paths, seed)
    base_costs = _per_path_costs(problem, grid, base.X_paths,
                                 base.u1_paths, base.u2_paths)

    def replay(paths):
        return lambda k, X: paths[:, k, :]

    def deviate(paths, v):
        return lambda k, X: paths[:, k, :] + v[k]

    # The saddle controls become open-loop processes (replayed per path);
    # deviations are deterministic directions added to one player's process.
    gaps1, gaps2 = [], []
    dirs1 = perturbation_directions(seed + 1, n_perturbations, grid, problem.m1)
    dirs2 = perturbation_directions(seed + 2, n_perturbations, grid, problem.m2)
    for v in dirs1:
        X, U1, U2 = _simulate_core(
            problem, deviate(base.u1_paths, v), replay(base.u2_paths),
            x, grid, base.increments)
        costs = _per_path_costs(problem, grid, X, U1, U2)
        gaps1.append(_estimate(costs - base_costs))
    for w in dirs2:
        X, U1, U2 = _simulate_core(
            problem, replay(base.u1_paths), deviate(base.u2_paths, w),
            x, grid, base.increments)
        costs = _per_path_costs(problem, grid, X, U1, U2)
        gaps2.append(_estimate(costs - base_costs))

    return SaddleReport(
        value_analytic=game_value(sol, x),
        value_mc=_estimate(base_costs),
        gaps_player1=gaps1, gaps_player2=gaps2, n_sigma=n_sigma)


def discrete_oracle(problem: GameProblem, x, N: int):
    """Exact value of the time-discretized game: piecewise-constant controls
    on N steps, Euler transition, trapezoid cost, solved by backward
    recursion on the quadratic value function.

    Returns (value, gains) where gains[k] maps state to the step-k saddle
    control.  Entirely independent of the continuous Riccati solver.
    """
    x = np.atleast_1d(np.asarray(x, float))
    n, m1, m2 = problem.n, problem.m1, problem.m2
    m = m1 + m2
    T = problem.horizon_T
    dt = T / N
    nodes = np.linspace(0.0, T, N + 1)
    table = coefficients(problem, nodes)

    P = np.array(problem.cost.G)
    gains: list[np.ndarray] = [None] * N
    for k in range(N - 1, -1, -1):
        A0, B0, C0, D0, Q0, S0, R0 = (c[k] for c in table)
        Q1, S1, R1 = table.Q[k + 1], table.S[k + 1], table.R[k + 1]
        M = np.eye(n) + dt * A0
        Nu = dt * B0
        W = P + 0.5 * dt * Q1
        # quadratic form of one step in (x, u): x'Qt x + 2 u'St x + u'Rt u
        Qt = 0.5 * dt * Q0 + M.T @ W @ M + dt * C0.T @ W @ C0
        St = 0.5 * dt * S0 + 0.5 * dt * S1 @ M + Nu.T @ W @ M + dt * D0.T @ W @ C0
        Rt = sym(0.5 * dt * R0 + 0.5 * dt * (R1 + S1 @ Nu + Nu.T @ S1.T)
                 + Nu.T @ W @ Nu + dt * D0.T @ W @ D0)
        lo = sym_eig_extremes(Rt[:m1, :m1])[0]
        if lo <= 0:
            raise OracleRegularityError(k, lo)
        Phi = Rt[m1:, m1:] - Rt[m1:, :m1] @ np.linalg.solve(Rt[:m1, :m1],
                                                            Rt[:m1, m1:])
        hi = sym_eig_extremes(sym(Phi))[1]
        if hi >= 0:
            raise OracleRegularityError(k, hi)
        K = -np.linalg.solve(Rt, St)
        gains[k] = K
        P = sym(Qt - St.T @ np.linalg.solve(Rt, St))
    return float(x @ P @ x), gains


def falsify_lower_value(problem: GameProblem, x, scalars, n_paths: int,
                        seed: int, sim_steps: int = 200):
    """Cost table J(x; lam, 0) for constant player-1 controls lam * ones.

    The caller inspects the trend; unboundedness below is never asserted."""
    grid = TimeGrid(problem.horizon_T, sim_steps)
    u2 = ControlLaw.constant(np.zeros(problem.m2))
    table = []
    for lam in scalars:
        u1 = ControlLaw.constant(float(lam) * np.ones(problem.m1))
        ens = simulate(problem, u1, u2, x, grid, n_paths, seed)
        table.append((float(lam), estimate_cost(problem, ens)))
    return table
