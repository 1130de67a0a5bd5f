"""Monte-Carlo evaluation of the game: component-major Euler--Maruyama path
simulation (one contiguous row of paths per state and control component)
that steps in two node slabs with one stacked product per node, advances a
run by segments of nodes from its states and cost and prices each path
inside its stepping loop, keeping only each path's cost, on a Brownian draw
shared by the runs of one seed and size; empirical saddle verification
with common random numbers, its runs advanced together block by block; an
exact discrete-time oracle, and the lower-value falsifier."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    ContractViolation, GameProblem, LqgError, TimeGrid, coefficients,
    interpolate, sym, _check_integer, _eig_extremes, _solve, _start_state,
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
        """Raises ContractViolation unless value is a scalar or a vector
        with finite entries."""
        value = np.atleast_1d(np.asarray(value, float))
        if value.ndim != 1 or not np.isfinite(value).all():
            raise ContractViolation("value must be a finite vector")
        return cls(kind="constant", value=value)

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
    """A simulated ensemble's payoffs with their seed record, so the
    identical Brownian increments can be reused across control variants.
    Each path's payoff is priced by `simulate` inside its stepping loop, and
    no state or control row is kept.  `increments` is a transposed view of
    the time-major ``(n_steps, n_paths)`` array `brownian_increments` draws,
    the read-only draw that every run of the same seed and size shares; the
    ensemble holds it, so it outlives a later draw with another key."""

    grid: TimeGrid
    n_paths: int
    seed: int
    increments: np.ndarray   # (n_paths, n_steps), read-only
    costs: np.ndarray        # (n_paths,) terminal plus running cost
    u1: ControlLaw
    u2: ControlLaw


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


# the last draw of `brownian_increments`: (key, read-only increments)
_last_draw = None


def brownian_increments(seed: int, n_paths: int, grid: TimeGrid) -> np.ndarray:
    """Increments dW_k ~ N(0, dt), time-major, shaped (n_steps, n_paths),
    read-only.

    Row k, step k of every path, is drawn from child k of
    ``SeedSequence(seed)``, so the draw is independent of evaluation order
    and the first paths of an ensemble do not change when more are
    requested.  The last draw is kept, keyed by (seed, n_paths, horizon_T,
    n_steps), and a call with that key returns the same array: `simulate`
    and `verify_saddle` on one seed and size draw once.  So one draw of
    n_steps * n_paths doubles stays alive after the call; a call with
    another key lets go of it before drawing.  Raises ContractViolation
    unless seed is an integer >= 0 and n_paths one >= 1."""
    global _last_draw
    _check_integer(seed, "seed", 0)
    _check_integer(n_paths, "n_paths", 1)
    key = (int(seed), int(n_paths), float(grid.horizon_T), grid.n_steps)
    last = _last_draw
    if last is not None and last[0] == key:
        return last[1]
    # drop every reference to the kept draw before the new one is made
    _last_draw = last = None
    scale = np.sqrt(grid.dt)
    dW = np.empty((grid.n_steps, n_paths))
    for k, child in enumerate(np.random.SeedSequence(seed).spawn(grid.n_steps)):
        dW[k] = np.random.default_rng(child).normal(0.0, scale, n_paths)
    dW.flags.writeable = False
    _last_draw = (key, dW)
    return dW


def _step_table(problem: GameProblem, grid: TimeGrid) -> np.ndarray:
    """Per node, the (2n + d, d) matrix ``[[A, B], [C, D], [Q, S'], [S,
    R]]`` whose product with z = (x; u1; u2) stacks the drift, the diffusion
    and ``M z``, where z'Mz is the running cost; shaped (n_nodes, 2n + d,
    d)."""
    t = coefficients(problem, grid.nodes)
    return np.block([[t.A, t.B], [t.C, t.D],
                     [t.Q, t.S.swapaxes(1, 2)], [t.S, t.R]])


def _quadratic_form(W: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """z'Mz for every column z of ``Z``, shaped (d, n_paths), from the
    product ``W = M @ Z``, which it overwrites: the d rows of ``W * Z``
    added one after another."""
    W *= Z
    s = W[0]
    for row in W[1:]:
        s += row
    return s


class _Stepper:
    """Vectorized Euler--Maruyama over an ensemble, component-major: node k
    of all paths is the slab ``z = (x; u1; u2)`` of shape (d, n_paths), one
    contiguous row per component.  ``KM`` is the problem's `_step_table` on
    ``grid``; ``dW`` holds the increments time-major, (n_steps, n_paths), as
    `brownian_increments` returns them.

    A run steps in two slabs, the current and the next node, and each node
    takes one product ``KM[k] @ z`` into one buffer, whose row blocks are
    the drift, the diffusion and ``M z``.  The slabs and the buffer belong
    to the stepper and serve every run it advances, one segment of nodes at
    a time: a run between segments is only its states and its cost."""

    def __init__(self, problem: GameProblem, KM: np.ndarray, grid: TimeGrid,
                 dW: np.ndarray):
        self.problem, self.KM, self.grid, self.dW = problem, KM, grid, dW
        self.slabs = np.empty((2, KM.shape[2], dW.shape[1]))
        self.Y = np.empty((KM.shape[1], dW.shape[1]))

    def advance(self, u1_fn, u2_fn, X0, cost, k0: int, k1: int,
                controls: np.ndarray | None = None,
                test_each_step: bool = False) -> np.ndarray:
        """Advance a run over nodes k0 .. k1 - 1, k1 <= n_nodes, from its
        states ``X0`` at node k0 ((n, n_paths), or (n, 1) for a shared
        start).  Controls are callables (step, states (n, n_paths)) ->
        controls (m, n_paths).  Node k's running cost z'Mz times its
        trapezoid weight (dt/2 at the two end nodes, dt inside) is added to
        ``cost``, node by node; at k1 = n_nodes the terminal term x'Gx
        follows.  Node k's control rows ``(u1; u2)`` are copied into
        ``controls[k - k0]`` when ``controls`` is given.  Returns the states
        at node k1, or at the last node for k1 = n_nodes: a view of a slab,
        which the next call overwrites.  With ``test_each_step``, raises
        SimulationDiverged at the first step whose states are not all
        finite, naming the lowest such path."""
        problem, grid, KM, dW, Y = (self.problem, self.grid, self.KM,
                                    self.dW, self.Y)
        n, m1 = problem.n, problem.m1
        dt = grid.dt
        slabs = self.slabs
        slabs[k0 % 2, :n] = X0
        # one errstate for the whole segment, since entering it costs more
        # than a step at small ensembles
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(k0, k1):
                Z = slabs[k % 2]
                X = Z[:n]
                Z[n:n + m1] = u1_fn(k, X)
                Z[n + m1:] = u2_fn(k, X)
                if controls is not None:
                    controls[k - k0] = Z[n:]
                np.matmul(KM[k], Z, out=Y)
                if k < grid.n_steps:
                    X_next = slabs[(k + 1) % 2, :n]
                    np.multiply(dt, Y[:n], out=X_next)
                    X_next += X
                    noise = Y[n:2 * n]
                    noise *= dW[k]
                    X_next += noise
                    if test_each_step and not _all_finite(X_next):
                        bad = ~np.isfinite(X_next).all(axis=0)
                        raise SimulationDiverged(int(np.argmax(bad)), k + 1)
                ell = _quadratic_form(Y[2 * n:], Z)
                ell *= 0.5 * dt if k in (0, grid.n_steps) else dt
                cost += ell
            if k1 > grid.n_steps:
                cost += _quadratic_form(problem.cost.G @ X, X)
                return X
        return slabs[k1 % 2, :n]

    def checked(self, u1_fn, u2_fn, X0, cost, k0: int, k1: int,
                controls: np.ndarray | None = None) -> np.ndarray:
        """`advance`, with divergence tested once, on the states it ends
        on: a state entry that is not finite stays so through every later
        step, so a segment that ends finite had none.  A segment that fails
        that test is repeated from ``X0`` with a test after each step, which
        raises SimulationDiverged naming the run's first such step and, at
        that step, the lowest path."""
        end = self.advance(u1_fn, u2_fn, X0, cost, k0, k1, controls)
        if not _all_finite(end):
            self.advance(u1_fn, u2_fn, X0, cost, k0, k1, test_each_step=True)
        return end


def _all_finite(X: np.ndarray) -> bool:
    """Whether every state is finite.  The sum is the cheap test; it also
    overflows on large finite states, which are not a divergence."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.isfinite(X.sum()) or np.isfinite(X).all()


def _draw(problem: GameProblem, u1: ControlLaw, u2: ControlLaw, x,
          grid: TimeGrid, n_paths: int, seed: int):
    """Check an ensemble's control dimensions and start state, then draw
    its increments (which checks its size); returns (x, increments)."""
    if u1.dim() != problem.m1 or u2.dim() != problem.m2:
        raise ContractViolation("control dimensions do not match the problem")
    x = _start_state(x, problem.n)
    return x, brownian_increments(seed, n_paths, grid)


def simulate(problem: GameProblem, u1: ControlLaw, u2: ControlLaw, x,
             grid: TimeGrid, n_paths: int, seed: int) -> PathEnsemble:
    """Simulate the controlled SDE on an ensemble of Brownian paths, pricing
    each path as it is stepped.

    Each step operates on contiguous length-``n_paths`` rows, one per state
    and control component, and reads row k of the time-major increments.
    The run is one `_Stepper` segment over every node, which keeps its two
    node slabs and each path's cost and records no row.  Raises
    ContractViolation unless n_paths is an integer >= 1, seed one >= 0 and
    the start state ``x`` a finite vector of length n, and
    SimulationDiverged naming the first step and, at that step, the lowest
    path whose state is not finite."""
    x, dW = _draw(problem, u1, u2, x, grid, n_paths, seed)
    costs = np.zeros(n_paths)
    _Stepper(problem, _step_table(problem, grid), grid, dW).checked(
        u1.as_callable(grid), u2.as_callable(grid), x[:, None], costs, 0,
        grid.n_steps + 1)
    return PathEnsemble(grid=grid, n_paths=n_paths, seed=seed,
                        increments=dW.T, costs=costs, u1=u1, u2=u2)


def _estimate(values: np.ndarray) -> CostEstimate:
    n = values.shape[0]
    se = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return CostEstimate(mean=float(values.mean()), std_error=se, n_paths=n)


def estimate_cost(problem: GameProblem, ensemble: PathEnsemble) -> CostEstimate:
    """Sample mean and standard error of the quadratic payoff."""
    return _estimate(ensemble.costs)


def perturbation_directions(seed: int, count: int, grid: TimeGrid,
                            m: int) -> list[np.ndarray]:
    """Deterministic sampled control paths with unit L2([0,T]) norm.
    Raises ContractViolation unless seed is an integer >= 0 and count and m
    ones >= 1."""
    _check_integer(seed, "seed", 0)
    _check_integer(count, "count", 1)
    _check_integer(m, "m", 1)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(0xD1,)))
    out = []
    for _ in range(count):
        v = rng.normal(size=(grid.n_steps + 1, m))
        norm_sq = np.trapezoid(np.sum(v * v, axis=1), dx=grid.dt)
        out.append(v / np.sqrt(norm_sq))
    return out


# the nodes each verify_saddle run advances before the next run takes its
# turn: the base run keeps this many nodes' control rows, which is all the
# deviations read of it; a run's per-step work does not depend on it
_BLOCK_NODES = 16


def _replay(saddle, player: int, v: np.ndarray, k0: int = 0):
    """Control callables that replay the saddle controls, each of shape
    (nodes, m, n_paths) with node k0 first, with the deterministic direction
    ``v`` of shape (n_nodes, m) added to one player's control at every
    step."""
    fns = [lambda k, X, U=U: U[k - k0] for U in saddle]
    U = saddle[player]
    fns[player] = lambda k, X: U[k - k0] + v[k][:, None]
    return fns


def verify_saddle(problem: GameProblem, sol: RiccatiSolution, law: FeedbackLaw,
                  x, n_perturbations: int, n_paths: int, seed: int,
                  sim_steps: int = 200) -> SaddleReport:
    """Simulate the closed-loop saddle pair, then re-simulate unilateral
    deviations with the same Brownian increments (common random numbers) and
    report the perturbation-gap statistics against 3 standard errors.

    The saddle controls become open-loop processes, replayed per path with
    a deterministic direction added to one player's process.  All runs
    advance together, `_BLOCK_NODES` nodes at a time: the base run steps a
    block and records that block's control rows, one (block, m1 + m2,
    n_paths) history, and each deviation then steps the same block from its
    own states, replaying those rows, where node k's controls are
    contiguous (m, n_paths) rows.  Between blocks a run keeps only its
    states and its running cost.  The runs share one draw of the
    increments, one `_step_table` and one `_Stepper`'s node slabs.

    Divergence is tested at each block's end.  The base run's raises at
    once; a deviation's is held until the base run has finished, and the
    first deviation that diverged is named, as if each run went whole in
    turn.  Raises ContractViolation unless n_perturbations is an integer >=
    1 and sim_steps one >= 2, before anything is drawn."""
    _check_integer(n_perturbations, "n_perturbations", 1)
    _check_integer(sim_steps, "sim_steps", 2)
    grid = TimeGrid(problem.horizon_T, sim_steps)
    m1 = problem.m1
    feedback = [ControlLaw.from_feedback(law, i, grid) for i in (1, 2)]
    x0, dW = _draw(problem, *feedback, x, grid, n_paths, seed)
    step = _Stepper(problem, _step_table(problem, grid), grid, dW)
    base = [c.as_callable(grid) for c in feedback]
    deviations = [(player, v) for player, m in enumerate((m1, problem.m2))
                  for v in perturbation_directions(seed + 1 + player,
                                                   n_perturbations, grid, m)]
    # each run's states at the next block's first node and its cost so
    # far, the base run first
    states = [np.repeat(x0[:, None], n_paths, axis=1)
              for _ in range(len(deviations) + 1)]
    costs = [np.zeros(n_paths) for _ in states]
    Ub = np.empty((_BLOCK_NODES, m1 + problem.m2, n_paths))
    saddle = (Ub[:, :m1], Ub[:, m1:])
    diverged = {}
    n_nodes = sim_steps + 1
    for k0 in range(0, n_nodes, _BLOCK_NODES):
        k1 = min(k0 + _BLOCK_NODES, n_nodes)
        states[0][...] = step.checked(*base, states[0], costs[0], k0, k1, Ub)
        for j, (player, v) in enumerate(deviations, 1):
            if j in diverged:
                continue
            try:
                states[j][...] = step.checked(
                    *_replay(saddle, player, v, k0), states[j], costs[j], k0,
                    k1)
            except SimulationDiverged as err:
                diverged[j] = err
    if diverged:
        raise diverged[min(diverged)]

    gaps = ([], [])
    for (player, _), cost in zip(deviations, costs[1:]):
        gaps[player].append(_estimate(cost - costs[0]))
    return SaddleReport(
        value_analytic=game_value(sol, x), value_mc=_estimate(costs[0]),
        gaps_player1=gaps[0], gaps_player2=gaps[1])


def discrete_oracle(problem: GameProblem, x, N: int):
    """Exact value of the time-discretized game: piecewise-constant controls
    on N steps, Euler transition, trapezoid cost, solved by backward
    recursion on the quadratic value function.

    Returns (value, gains) where gains[k] maps state to the step-k saddle
    control.  Entirely independent of the continuous Riccati solver.  Raises
    ContractViolation for a step count N that is not a positive integer and
    for a start state ``x`` that is not a finite vector of length n.

    Every term that does not involve the value matrix P is formed once for
    the whole grid before the recursion, by the expression a step would use
    applied to the stacked coefficients, so each step's operands keep the
    values and memory layout (and with them the BLAS bits) of a per-step
    evaluation; each sum keeps its left-to-right order.
    """
    n, m1 = problem.n, problem.m1
    if not isinstance(N, (int, np.integer)) or isinstance(N, bool) or N < 1:
        raise ContractViolation(f"step count N must be a positive integer, "
                                f"got {N!r}")
    x = _start_state(x, n)
    T = problem.horizon_T
    dt = T / N
    A, B, C, D, Q, S, R = coefficients(problem, np.linspace(0.0, T, N + 1))

    # one step's quadratic form in (x, u) is x'Qt x + 2 u'St x + u'Rt u, with
    # M = I + dt A at the step's near node and W = P + dt/2 Q at its far
    # one; St_fixed and Rt_fixed are the parts of St and Rt free of W
    M = np.eye(n) + dt * A
    Nu = dt * B
    halfQ = 0.5 * dt * Q
    dtCT, dtDT = dt * C.mT, dt * D.mT
    S1, R1 = S[1:], R[1:]
    St_fixed = 0.5 * dt * S[:-1] + 0.5 * dt * S1 @ M[:-1]
    Rt_fixed = 0.5 * dt * R[:-1] + 0.5 * dt * (R1 + S1 @ Nu[:-1]
                                                + Nu[:-1].mT @ S1.mT)

    P = np.array(problem.cost.G)
    gains: list[np.ndarray] = [None] * N
    for k in range(N - 1, -1, -1):
        Mk, Nk = M[k], Nu[k]
        W = P + halfQ[k + 1]
        NuW, DW = Nk.T @ W, dtDT[k] @ W
        Qt = halfQ[k] + Mk.T @ W @ Mk + dtCT[k] @ W @ C[k]
        St = St_fixed[k] + NuW @ Mk + DW @ C[k]
        Rt = sym(Rt_fixed[k] + NuW @ Nk + DW @ D[k])
        # Rt and sym(Phi) are symmetric by construction (no check), and
        # lo > 0, then hi < 0, make the matrices solved below nonsingular
        lo = _eig_extremes(Rt[:m1, :m1])[0]
        if lo <= 0:
            raise OracleRegularityError(k, lo)
        Phi = Rt[m1:, m1:] - Rt[m1:, :m1] @ _solve(Rt[:m1, :m1], Rt[:m1, m1:])
        hi = _eig_extremes(sym(Phi))[1]
        if hi >= 0:
            raise OracleRegularityError(k, hi)
        RinvS = _solve(Rt, St)
        gains[k] = -RinvS
        P = sym(Qt - St.T @ RinvS)
    return float(x @ P @ x), gains


def falsify_lower_value(problem: GameProblem, x, scalars, n_paths: int,
                        seed: int):
    """Cost table J(x; lam, 0) for constant player-1 controls lam * ones on
    a 200-step grid.  The caller inspects the trend; unboundedness below is
    never asserted.  Raises ContractViolation, before any simulation,
    unless every scalar is finite."""
    scalars = [float(lam) for lam in scalars]
    if not np.isfinite(scalars).all():
        raise ContractViolation("scalars must be finite")
    grid = TimeGrid(problem.horizon_T, 200)
    u2 = ControlLaw.constant(np.zeros(problem.m2))
    table = []
    for lam in scalars:
        u1 = ControlLaw.constant(lam * np.ones(problem.m1))
        ens = simulate(problem, u1, u2, x, grid, n_paths, seed)
        table.append((lam, estimate_cost(problem, ens)))
    return table
