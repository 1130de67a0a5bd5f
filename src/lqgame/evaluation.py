"""Monte-Carlo evaluation of the game: component-major Euler--Maruyama path
simulation (one contiguous row of paths per state and control component)
that prices each path inside its stepping loop, empirical saddle
verification with common random numbers, an exact discrete-time oracle, and
the lower-value falsifier."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    ContractViolation, GameProblem, LqgError, TimeGrid, coefficients,
    interpolate, sym, _eig_extremes,
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
    """One player's control: state feedback rows or a constant vector."""

    kind: str                      # feedback | constant
    gains: np.ndarray | None = None    # (n_nodes, m, n) for feedback
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

    def dim(self) -> int:
        if self.kind == "feedback":
            return self.gains.shape[1]
        return self.value.shape[0]

    def as_callable(self, grid: TimeGrid):
        """(step k, states (n, n_paths)) -> controls (m, n_paths)."""
        if self.kind == "feedback":
            if self.gains.shape[0] != grid.n_steps + 1:
                raise ContractViolation("feedback gains not sampled on this grid")
            gains = self.gains
            return lambda k, X: gains[k] @ X
        value = self.value[:, None]
        return lambda k, X: np.broadcast_to(value, (value.shape[0], X.shape[1]))


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Simulated trajectories with their seed record, so the identical
    Brownian increments can be reused across control variants.  Each
    path's payoff is priced by `simulate` inside its stepping loop.

    The histories are stored component-major, node by node, in one
    ``(n_nodes, n + m1 + m2, n_paths)`` buffer and the increments in the
    time-major ``(n_steps, n_paths)`` array `brownian_increments` draws;
    the fields below are transposed views of those buffers, not copies."""

    grid: TimeGrid
    n_paths: int
    seed: int
    increments: np.ndarray   # (n_paths, n_steps)
    X_paths: np.ndarray      # (n_paths, n_nodes, n)
    u1_paths: np.ndarray     # (n_paths, n_nodes, m1)
    u2_paths: np.ndarray     # (n_paths, n_nodes, m2)
    costs: np.ndarray        # (n_paths,) terminal plus running cost


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
    """Increments dW_k ~ N(0, dt), time-major, shaped (n_steps, n_paths).

    Row k, step k of every path, is drawn from child k of
    ``SeedSequence(seed)``, so the draw is independent of evaluation order
    and the first paths of an ensemble do not change when more are
    requested."""
    scale = np.sqrt(grid.dt)
    return np.stack([
        np.random.default_rng(c).normal(0.0, scale, n_paths)
        for c in np.random.SeedSequence(seed).spawn(grid.n_steps)])


def _quadratic_form(M: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """z'Mz for every column z of ``Z``, shaped (d, n_paths): the d rows of
    ``(M @ Z) * Z`` added one after another."""
    W = M @ Z
    W *= Z
    s = W[0]
    for row in W[1:]:
        s += row
    return s


def _simulate_core(problem: GameProblem, u1_fn, u2_fn, x, grid: TimeGrid,
                   dW: np.ndarray, slots: int):
    """Vectorized Euler--Maruyama over an ensemble, component-major: node k
    of all paths is the slab ``z = (x; u1; u2)`` of shape (d, n_paths), one
    contiguous row per component.  Controls are callables
    (step, states (n, n_paths)) -> controls (m, n_paths); ``dW`` holds the
    increments time-major, (n_steps, n_paths), as `brownian_increments`
    returns them.

    Node k is written to slot ``k % slots`` of the returned buffer, so
    ``slots = n_nodes`` keeps the whole history and ``slots = 2`` only the
    current and the next node.  Also returns each path's cost, accumulated
    in the loop: node k's running cost z'Mz times its trapezoid weight (dt/2
    at the two end nodes, dt inside), added in time order, plus the
    terminal term x'Gx."""
    n_paths = dW.shape[1]
    n, m1 = problem.n, problem.m1
    x = np.atleast_1d(np.asarray(x, float))
    if x.shape != (n,) or not np.isfinite(x).all():
        raise ContractViolation(
            f"start state x must be a finite vector of length {n}")
    dt = grid.dt
    n_nodes = grid.n_steps + 1

    # per node, (drift; diffusion) = K (x; u1; u2) and the running
    # integrand is the quadratic form z'Mz in z = (x, u1, u2)
    table = coefficients(problem, grid.nodes)
    K = np.block([[table.A, table.B], [table.C, table.D]])
    M = np.block([[table.Q, table.S.swapaxes(1, 2)], [table.S, table.R]])

    Zh = np.empty((slots, n + m1 + problem.m2, n_paths))
    Zh[0, :n] = x[:, None]
    cost = np.zeros(n_paths)
    # an overflowing step is reported as SimulationDiverged below; one
    # errstate for the whole loop, since entering it costs more than a step
    # at small ensembles
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_nodes):
            Z = Zh[k % slots]
            X = Z[:n]
            Z[n:n + m1] = u1_fn(k, X)
            Z[n + m1:] = u2_fn(k, X)
            if k < grid.n_steps:
                X_next = Zh[(k + 1) % slots, :n]
                Y = K[k] @ Z
                np.multiply(dt, Y[:n], out=X_next)
                X_next += X
                noise = Y[n:]
                noise *= dW[k]
                X_next += noise
                # the sum is the cheap test; it also overflows on large
                # finite states, which are not a divergence
                if not np.isfinite(X_next.sum()):
                    bad = ~np.isfinite(X_next).all(axis=0)
                    if bad.any():
                        raise SimulationDiverged(int(np.argmax(bad)), k + 1)
            ell = _quadratic_form(M[k], Z)
            ell *= 0.5 * dt if k in (0, grid.n_steps) else dt
            cost += ell
        cost += _quadratic_form(problem.cost.G, X)
    return Zh, cost


def simulate(problem: GameProblem, u1: ControlLaw, u2: ControlLaw, x,
             grid: TimeGrid, n_paths: int, seed: int) -> PathEnsemble:
    """Simulate the controlled SDE on an ensemble of Brownian paths, pricing
    each path as it is stepped.

    Each step operates on contiguous length-``n_paths`` rows, one per state
    and control component, and reads row k of the time-major increments;
    the returned ensemble's path arrays and increments are transposed views
    of those buffers (see PathEnsemble).  Raises ContractViolation for a
    start state ``x`` that is not a finite vector of length n."""
    if n_paths < 1:
        raise ContractViolation("n_paths must be >= 1")
    if u1.dim() != problem.m1 or u2.dim() != problem.m2:
        raise ContractViolation("control dimensions do not match the problem")
    dW = brownian_increments(seed, n_paths, grid)
    Zh, costs = _simulate_core(problem, u1.as_callable(grid),
                               u2.as_callable(grid), x, grid, dW,
                               grid.n_steps + 1)
    n, m1 = problem.n, problem.m1
    paths = Zh.transpose(2, 0, 1)
    return PathEnsemble(grid=grid, n_paths=n_paths, seed=seed,
                        increments=dW.T, X_paths=paths[:, :, :n],
                        u1_paths=paths[:, :, n:n + m1],
                        u2_paths=paths[:, :, n + m1:], costs=costs)


def _estimate(values: np.ndarray) -> CostEstimate:
    n = values.shape[0]
    se = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return CostEstimate(mean=float(values.mean()), std_error=se, n_paths=n)


def estimate_cost(problem: GameProblem, ensemble: PathEnsemble) -> CostEstimate:
    """Sample mean and standard error of the quadratic payoff."""
    return _estimate(ensemble.costs)


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


def _replay(saddle, player: int, v: np.ndarray):
    """Control callables that replay the saddle controls, each stored as
    (n_nodes, m, n_paths), with the deterministic direction ``v`` of shape
    (n_nodes, m) added to one player's control at every step."""
    fns = [lambda k, X, U=U: U[k] for U in saddle]
    U = saddle[player]
    fns[player] = lambda k, X: U[k] + v[k][:, None]
    return fns


def verify_saddle(problem: GameProblem, sol: RiccatiSolution, law: FeedbackLaw,
                  x, n_perturbations: int, n_paths: int, seed: int,
                  sim_steps: int = 200, n_sigma: float = 3.0) -> SaddleReport:
    """Simulate the closed-loop saddle pair, then re-simulate unilateral
    deviations with the same Brownian increments (common random numbers) and
    report the perturbation-gap statistics.

    The saddle controls become open-loop processes, replayed per path and
    kept as contiguous (n_nodes, m, n_paths) copies; the base state history
    is released.  A deviation adds a deterministic direction to one player's
    process and keeps no history: only its running cost and the state and
    control slabs of the current and the next node."""
    grid = TimeGrid(problem.horizon_T, sim_steps)
    u1_fb = ControlLaw.from_feedback(law, 1, grid)
    u2_fb = ControlLaw.from_feedback(law, 2, grid)
    base = simulate(problem, u1_fb, u2_fb, x, grid, n_paths, seed)
    saddle = tuple(np.ascontiguousarray(U.transpose(1, 2, 0))
                   for U in (base.u1_paths, base.u2_paths))
    dW = base.increments.T
    base_costs = base.costs
    del base

    gaps = ([], [])
    for player, m in enumerate((problem.m1, problem.m2)):
        for v in perturbation_directions(seed + 1 + player, n_perturbations,
                                         grid, m):
            costs = _simulate_core(problem, *_replay(saddle, player, v),
                                   x, grid, dW, 2)[1]
            gaps[player].append(_estimate(costs - base_costs))

    return SaddleReport(
        value_analytic=game_value(sol, x),
        value_mc=_estimate(base_costs),
        gaps_player1=gaps[0], gaps_player2=gaps[1], n_sigma=n_sigma)


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
        # Rt and sym(Phi) are symmetric by construction: no check needed
        lo = _eig_extremes(Rt[:m1, :m1])[0]
        if lo <= 0:
            raise OracleRegularityError(k, lo)
        Phi = Rt[m1:, m1:] - Rt[m1:, :m1] @ np.linalg.solve(Rt[:m1, :m1],
                                                            Rt[:m1, m1:])
        hi = _eig_extremes(sym(Phi))[1]
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
