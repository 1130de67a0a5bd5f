"""Monte-Carlo evaluation of the game: component-major Euler--Maruyama path
simulation that steps a stack of runs, tile of paths by tile of paths, with
one product per node for the base run and one for all its deviations, and
prices each path inside its stepping loop, keeping only each path's cost;
each tile draws its own Brownian increments, block by block of paths, a
chunk of nodes at a time, and nothing of the draw is kept; empirical saddle
verification with common random numbers; an exact discrete-time oracle, and
the lower-value falsifier."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    ContractViolation, GameProblem, LqgError, TimeGrid, coefficients,
    interpolate, sym, _check_fit, _check_integer, _eig_extremes, _solve,
    _start_state,
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
    """One player's control: finite feedback rows or a finite constant."""

    kind: str                      # feedback | constant
    gains: np.ndarray | None = None    # (n_nodes, m, n) for feedback
    value: np.ndarray | None = None    # (m,) for constant

    def __post_init__(self):
        if self.kind not in ("feedback", "constant"):
            raise ContractViolation(f"unknown control law kind {self.kind!r}")
        name, ndim = ("gains", 3) if self.kind == "feedback" else ("value", 1)
        a = np.atleast_1d(np.asarray(getattr(self, name), float))
        if a.ndim != ndim or not np.isfinite(a).all():
            raise ContractViolation(f"{name} must be a finite "
                                    f"{'3-d array' if ndim == 3 else 'vector'}")
        object.__setattr__(self, name, a)

    @classmethod
    def from_feedback(cls, law: FeedbackLaw, player: int,
                      grid: TimeGrid) -> "ControlLaw":
        """Extract one player's rows, resampled onto a grid of its horizon."""
        if player not in (1, 2):
            raise ContractViolation("player must be 1 or 2")
        _check_fit("grid", (None,) * 3 + (grid.horizon_T,), law.fit)
        gains = interpolate(law.theta_nodes, law.grid.horizon_T, grid.nodes)
        rows = gains[:, :law.m1, :] if player == 1 else gains[:, law.m1:, :]
        return cls(kind="feedback", gains=rows)

    @classmethod
    def constant(cls, value) -> "ControlLaw":
        return cls(kind="constant", value=value)

    def dim(self) -> int:
        if self.kind == "feedback":
            return self.gains.shape[1]
        return self.value.shape[0]

    def as_callable(self, grid: TimeGrid):
        """(step k, states (n, n_paths), out): writes the controls at step
        k, shaped (m, n_paths), into ``out``."""
        if self.kind == "feedback":
            if self.gains.shape[0] != grid.n_steps + 1:
                raise ContractViolation("feedback gains not sampled on this grid")
            gains = self.gains
            return lambda k, X, out: np.matmul(gains[k], X, out=out)
        value = self.value[:, None]
        return lambda k, X, out: np.copyto(out, value)


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """A simulated ensemble's payoffs with their seed record: a run on the
    same seed, grid and size draws the identical Brownian increments, so
    another control variant can be priced on the same paths.  Each path's
    payoff is priced by `simulate` inside its stepping loop, and no state,
    control or increment row is kept."""

    grid: TimeGrid
    n_paths: int
    seed: int
    costs: np.ndarray        # (n_paths,) terminal plus running cost
    u1: ControlLaw
    u2: ControlLaw


@dataclass(frozen=True)
class CostEstimate:
    mean: float
    std_error: float
    n_paths: int


# standard errors within which SaddleReport's checks pass
_N_SIGMA = 3.0


@dataclass
class SaddleReport:
    """Empirical check of the two saddle inequalities plus the value match,
    each to within _N_SIGMA standard errors."""

    value_analytic: float
    value_mc: CostEstimate
    gaps_player1: list[CostEstimate]
    gaps_player2: list[CostEstimate]
    verdict: str = field(init=False)

    def __post_init__(self):
        ok = abs(self.value_mc.mean - self.value_analytic) \
            <= _N_SIGMA * self.value_mc.std_error
        for g in self.gaps_player1:
            ok = ok and g.mean >= -_N_SIGMA * g.std_error
        for g in self.gaps_player2:
            ok = ok and g.mean <= _N_SIGMA * g.std_error
        self.verdict = "PASS" if ok else "FAIL"


# paths per block of the draw: paths 64b .. 64b + 63 come from child b of
# SeedSequence(seed), so a tile, a multiple of 64 paths, draws its own blocks
_BLOCK = 64
# nodes per chunk of a tile's draw (8 or 50 stepped the saddle check slower)
_CHUNK = 16


def _draw(seed: int, grid: TimeGrid, t0: int, t1: int, out: np.ndarray):
    """Yield the increments dW_k ~ N(0, dt) of paths t0 .. t1 - 1, t0 a
    multiple of 64, up to ``len(out)`` steps at a time from step 0: each
    chunk a view of ``out``, shaped (steps, t1 - t0), that the next
    overwrites.

    Block b of paths is drawn by its own generator, from child b of
    ``SeedSequence(seed)``, step-major: step k of its 64 paths, then step k
    + 1.  A partial last block draws 64 paths and uses the first.  Drawn in
    chunks of any size, a generator's numbers are those of one call, so
    the draw of a path depends on neither the tile, the chunk size nor the
    number of paths.  This is the one draw function of the module: the
    stepper and `brownian_increments` call it."""
    scale = np.sqrt(grid.dt)
    blocks = [(b * _BLOCK - t0, np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(b,))))
        for b in range(t0 // _BLOCK, -(-t1 // _BLOCK))]
    # a block's standard normals; scaled, they are what Generator.normal(0,
    # scale) returns, bit for bit
    normals = np.empty((len(out), _BLOCK))
    for k0 in range(0, grid.n_steps, len(out)):
        chunk = out[:grid.n_steps - k0]
        block = normals[:len(chunk)]
        for p0, rng in blocks:
            rng.standard_normal(out=block)
            np.multiply(block[:, :t1 - t0 - p0], scale,
                        out=chunk[:, p0:p0 + _BLOCK])
        yield chunk


def brownian_increments(seed: int, n_paths: int, grid: TimeGrid) -> np.ndarray:
    """Increments dW_k ~ N(0, dt), time-major, shaped (n_steps, n_paths):
    the whole draw that `simulate` and `verify_saddle` make tile by tile.

    Paths 64b .. 64b + 63 are drawn from child b of ``SeedSequence(seed)``,
    step-major, so the draw is independent of evaluation order and the
    first paths of an ensemble do not change when more are requested.
    Nothing is kept: each call draws anew.  Raises ContractViolation unless
    seed is an integer >= 0 and n_paths one >= 1."""
    _check_integer(seed, "seed", 0)
    _check_integer(n_paths, "n_paths", 1)
    dW, = _draw(seed, grid, 0, n_paths, np.empty((grid.n_steps, n_paths)))
    return dW


def _step_table(problem: GameProblem, grid: TimeGrid) -> np.ndarray:
    """Per node k, the (2n + d, d) matrix ``[[I + dt A, dt B], [C, D],
    [w_k Q, w_k S'], [w_k S, w_k R]]`` whose product with z = (x; u1; u2)
    stacks the state moved by the drift over a step, the diffusion and ``w_k
    M z``, where z'Mz is the running cost and w_k node k's trapezoid weight
    (dt/2 at the two end nodes, dt inside); shaped (n_nodes, 2n + d, d)."""
    t = coefficients(problem, grid.nodes)
    dt = grid.dt
    weight = np.full((grid.n_steps + 1, 1, 1), dt)
    weight[[0, -1]] = 0.5 * dt
    return np.block([[np.eye(problem.n) + dt * t.A, dt * t.B], [t.C, t.D],
                     [weight * t.Q, weight * t.S.swapaxes(1, 2)],
                     [weight * t.S, weight * t.R]])


def _quadratic_form(W: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """z'Mz for every column z of ``Z``, shaped (d, n_paths), from the
    product ``W = M @ Z``, which it overwrites: the d rows of ``W * Z``
    added one after another."""
    W *= Z
    s = W[0]
    for row in W[1:]:
        s += row
    return s


# bytes of one tile's node slabs, product and costs, for all its runs, and
# of its chunk of increments: a tile stays in a core's L2 cache, so a larger
# game gets a narrower tile (2 MiB ran mc_verify's jobs as fast as 1 MiB,
# 3 MiB 6% slower)
_TILE_BYTES = 2 << 20


def _tiles(n_paths: int, path_bytes: int) -> list[tuple[int, int]]:
    """The path ranges (t0, t1) of the tiles, at ``path_bytes`` per path: as
    many multiples of 64 paths as fit in `_TILE_BYTES`, at least 64; a
    remainder under 64 paths joins the last tile."""
    width = max(64, _TILE_BYTES // path_bytes // 64 * 64)
    starts = list(range(0, n_paths, width))
    if len(starts) > 1 and n_paths - starts[-1] < 64:
        del starts[-1]
    return list(zip(starts, starts[1:] + [n_paths]))


class _Stepper:
    """Vectorized Euler--Maruyama over a stack of runs on the draw of
    ``seed`` for ``n_paths`` paths, the increments `brownian_increments`
    returns.  The base run's controls are the callables ``u1_fn`` and
    ``u2_fn``, (step k, states (n, w), out (m, w)) -> None, which write the
    controls into ``out``.  A deviation's controls at node k are the base
    run's, with row k of its direction added to one player's;
    ``directions`` holds player 1's and player 2's, shaped (n_nodes, m1, J1)
    and (n_nodes, m2, J2).  `simulate` gives none: a stack of one.

    The paths go tile by tile (`_tiles`), each over every node before the
    next, and each tile draws its own increments, `_CHUNK` nodes at a time
    (`_draw`).  On a tile of w paths, node k of the stack is the slab ``z =
    (x; u1; u2)`` of shape (d, 1 + J, w), the base run first: a contiguous
    row of w paths per component and run.  The stack steps in two slabs,
    the current and the next node, and node k takes the product ``KM[k] @
    z`` (``KM`` the problem's `_step_table`) into one buffer, whose row
    blocks are the state moved by the drift over the step, the diffusion
    and the weighted ``M z``, in two parts: the base run's (d, w) slab,
    stepped as `simulate` steps it, and the deviations' (d, J * w).  Every
    other operation of a step acts on the whole stack."""

    def __init__(self, problem: GameProblem, grid: TimeGrid, seed: int,
                 n_paths: int, u1_fn, u2_fn, directions=()):
        self.problem, self.grid, self.seed = problem, grid, seed
        self.n_paths = n_paths
        self.KM = list(_step_table(problem, grid))
        self.u_fns = (u1_fn, u2_fn)
        # each player's directions by node, (m, J_i, 1) over a tile's paths
        self.directions = [list(V[..., None]) for V in directions]
        self.J1 = directions[0].shape[2] if directions else 0
        self.runs = 1 + sum(V.shape[2] for V in directions)
        # a tile's two node slabs, product and costs, in rows of w paths a
        # run, then its chunk of increments
        self.rows = 3 * self.KM[0].shape[1] + 2 * problem.n + 1
        self.tiles = _tiles(n_paths, 8 * (self.rows * self.runs + _CHUNK))
        self.buffer = np.empty((self.rows * self.runs + _CHUNK)
                               * max(t1 - t0 for t0, t1 in self.tiles))

    def run(self, x: np.ndarray) -> np.ndarray:
        """Each run's cost per path from the start state ``x``, shaped (1 +
        J, n_paths), the base run first.  A tile whose last states are not
        all finite (a state entry that is not finite stays so) is repeated,
        on the same draw, with a test after each step.  After every tile,
        SimulationDiverged names the first run that diverged, at its first
        such step and, at that step, its lowest path, as each run stepped
        whole would."""
        costs = np.empty((self.runs, self.n_paths))
        first = [None] * self.runs      # each run's first (step, path)
        for t0, t1 in self.tiles:
            if not self._tile(x, costs[:, t0:t1], t0, t1):
                self._tile(x, costs[:, t0:t1], t0, t1, first)
        for hit in first:
            if hit is not None:
                raise SimulationDiverged(hit[1], hit[0])
        return costs

    def _tile(self, x, cost, t0: int, t1: int, first=None) -> bool:
        """Step paths t0 .. t1 - 1 of every run and write their costs into
        ``cost``: node by node from 0, the weighted z'Mz, then x'Gx.
        Returns whether the last states are all finite; with ``first``,
        records in it each run's first step whose states are not and its
        lowest such path."""
        problem, KM = self.problem, self.KM
        n, m1, d = problem.n, problem.m1, KM[0].shape[1]
        R, w, last = self.runs, t1 - t0, self.grid.n_steps
        buf = self.buffer[:(self.rows * R + _CHUNK) * w]
        slabs = buf[:2 * d * R * w].reshape(2, d, R, w)
        end = self.rows * R * w        # the chunk of increments starts here
        Y = buf[2 * d * R * w:end - R * w].reshape(2 * n + d, R, w)
        acc = buf[end - R * w:end]
        acc[:] = 0.0
        # the tile's increments, step by step, as its chunks are drawn
        chunks = _draw(self.seed, self.grid, t0, t1,
                       buf[end:].reshape(_CHUNK, w))
        dW = (row for chunk in chunks for row in chunk)
        drift, noise = Y[:n], Y[n:2 * n]
        running = Y.reshape(2 * n + d, R * w)[2 * n:]
        # the product's two parts, the base run's and the deviations'
        products = [Y[:, 0]] + [Y[:, 1:].reshape(2 * n + d, -1)] * (R > 1)
        # per node slab: the stack by rows, its states, the base run's
        # states and control rows, each part's slab, and the deviations'
        # control blocks: (base rows, directions added or None, block)
        nodes = []
        for Z in slabs:
            base, parts, controls = Z[:, 0], [Z[:, 0]], []
            if R > 1:
                parts.append(Z[:, 1:].reshape(d, -1))
                J1, (V1, V2) = 1 + self.J1, self.directions
                b1, b2 = base[n:n + m1, None], base[n + m1:, None]
                controls = [(b1, V1, Z[n:n + m1, 1:J1]),
                            (b1, None, Z[n:n + m1, J1:]),
                            (b2, None, Z[n + m1:, 1:J1]),
                            (b2, V2, Z[n + m1:, J1:])]
            nodes.append((Z.reshape(d, R * w), Z[:n], base[:n],
                          base[n:n + m1], base[n + m1:], parts, controls))
        nodes[0][1][...] = x[:, None, None]
        u1_fn, u2_fn = self.u_fns
        # one errstate for the whole tile, since entering it costs more than
        # a step at small ensembles
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(last + 1):
                Z, X, x_base, u1, u2, parts, controls = nodes[k % 2]
                u1_fn(k, x_base, u1)
                u2_fn(k, x_base, u2)
                # a copy, then the direction added in place: one np.add of
                # the rows and the stride-0 direction into ``out`` took 4.1
                # us at 640 paths, these two 3.3 us
                for rows, V, out in controls:
                    out[...] = rows
                    if V is not None:
                        out += V[k]
                for z, y in zip(parts, products):
                    np.matmul(KM[k], z, out=y)
                if k < last:
                    X_next = nodes[(k + 1) % 2][1]
                    np.multiply(noise, next(dW), out=X_next)
                    X_next += drift
                    if first is not None and not _all_finite(X_next):
                        bad = ~np.isfinite(X_next).all(axis=0)
                        for r in np.flatnonzero(bad.any(axis=1)):
                            hit = (k + 1, t0 + int(np.argmax(bad[r])))
                            first[r] = min(first[r] or hit, hit)
                acc += _quadratic_form(running, Z)
            for z, c in zip(parts, (acc[:w], acc[w:])):
                c += _quadratic_form(problem.cost.G @ z[:n], z[:n])
        cost[...] = acc.reshape(R, w)
        return _all_finite(X)


def _all_finite(X: np.ndarray) -> bool:
    """Whether every state is finite.  The sum is the cheap test; it also
    overflows on large finite states, which are not a divergence."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.isfinite(X.sum()) or np.isfinite(X).all()


def _checked(problem: GameProblem, u1: ControlLaw, u2: ControlLaw, x,
             grid: TimeGrid, n_paths: int, seed: int) -> tuple:
    """Check each player's rows and n of feedback gains, the grid's horizon,
    the start state, seed and size; returns x and the control callables."""
    for i, u in enumerate((u1, u2), 1):
        n = u.gains.shape[2] if u.kind == "feedback" else None
        _check_fit(f"u{i}", (n, None)[:i] + (u.dim(),), problem.fit)
    _check_fit("grid", (None,) * 3 + (grid.horizon_T,), problem.fit)
    x = _start_state(x, problem.n)
    _check_integer(seed, "seed", 0)
    _check_integer(n_paths, "n_paths", 1)
    return x, [u.as_callable(grid) for u in (u1, u2)]


def simulate(problem: GameProblem, u1: ControlLaw, u2: ControlLaw, x,
             grid: TimeGrid, n_paths: int, seed: int) -> PathEnsemble:
    """Simulate the controlled SDE on an ensemble of Brownian paths, pricing
    each path as it is stepped.

    The run is a `_Stepper` stack of one, which draws the increments tile
    by tile, keeps each path's cost and records no row.  Raises
    ContractViolation unless n_paths is an integer >= 1, seed one >= 0 and
    the start state ``x`` a finite vector of length n, and
    SimulationDiverged naming the first step and, at that step, the lowest
    path whose state is not finite."""
    x, fns = _checked(problem, u1, u2, x, grid, n_paths, seed)
    costs = _Stepper(problem, grid, seed, n_paths, *fns).run(x)[0]
    return PathEnsemble(grid=grid, n_paths=n_paths, seed=seed, costs=costs,
                        u1=u1, u2=u2)


def _estimate(values: np.ndarray) -> CostEstimate:
    n = values.shape[0]
    se = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return CostEstimate(mean=float(values.mean()), std_error=se, n_paths=n)


def estimate_cost(problem: GameProblem, ensemble: PathEnsemble) -> CostEstimate:
    """Sample mean and standard error of the quadratic payoff."""
    _check_fit("ensemble", (None, ensemble.u1.dim(), ensemble.u2.dim(),
                            ensemble.grid.horizon_T), problem.fit)
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


def verify_saddle(problem: GameProblem, sol: RiccatiSolution, law: FeedbackLaw,
                  x, n_perturbations: int, n_paths: int, seed: int,
                  sim_steps: int = 200) -> SaddleReport:
    """Simulate the closed-loop saddle pair, then re-simulate unilateral
    deviations with the same Brownian increments (common random numbers) and
    report the perturbation-gap statistics against 3 standard errors.

    The saddle controls become open-loop processes: a deviation's controls
    are the base run's on the same path at the same node, with a
    deterministic direction added to one player's.  The base run, stepped
    as `simulate` steps it, and all 2 * n_perturbations deviations are one
    `_Stepper` stack on one draw of the increments, which `simulate` on the
    same seed and size draws too; between tiles a run keeps only its costs.
    Raises ContractViolation unless n_perturbations is an integer >= 1,
    sim_steps one >= 2 and ``sol`` a game-kind solution, before anything is
    drawn."""
    _check_integer(n_perturbations, "n_perturbations", 1)
    _check_integer(sim_steps, "sim_steps", 2)
    _check_fit("sol", sol.fit, problem.fit)
    _check_fit("law", law.fit, problem.fit)
    value = game_value(sol, x)
    grid = TimeGrid(problem.horizon_T, sim_steps)
    feedback = [ControlLaw.from_feedback(law, i, grid) for i in (1, 2)]
    x0, fns = _checked(problem, *feedback, x, grid, n_paths, seed)
    directions = [np.stack(perturbation_directions(
        seed + 1 + player, n_perturbations, grid, m), axis=2)
        for player, m in enumerate((problem.m1, problem.m2))]
    costs = _Stepper(problem, grid, seed, n_paths, *fns, directions).run(x0)
    gaps = [[_estimate(cost - costs[0]) for cost in block]
            for block in np.split(costs[1:], 2)]
    return SaddleReport(value_analytic=value, value_mc=_estimate(costs[0]),
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
    _check_integer(N, "N", 1)
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


def _constant_sweep(problem: GameProblem, x, grid: TimeGrid, n_paths: int,
                    seed: int, levels1, levels2):
    """Cost estimates of constant controls on one draw: the zero-control
    base run, then player 1's controls lam * ones for lam in ``levels1``,
    player 2's 0, then player 2's lam * ones for lam in ``levels2``, player
    1's 0.  Each is a deviation of the base by the constant direction lam *
    ones, so all are one `_Stepper` stack and the increments are drawn
    once; returns (base, [player 1's], [player 2's])."""
    zeros = [ControlLaw.constant(np.zeros(m))
             for m in (problem.m1, problem.m2)]
    x, fns = _checked(problem, *zeros, x, grid, n_paths, seed)
    directions = [np.broadcast_to(np.asarray(levels, float),
                                  (grid.n_steps + 1, m, len(levels)))
                  for levels, m in ((levels1, problem.m1),
                                    (levels2, problem.m2))]
    costs = _Stepper(problem, grid, seed, n_paths, *fns, directions).run(x)
    estimates = [_estimate(c) for c in costs]
    J1 = len(levels1)
    return estimates[0], estimates[1:1 + J1], estimates[1 + J1:]


def falsify_lower_value(problem: GameProblem, x, scalars, n_paths: int,
                        seed: int):
    """Cost table J(x; lam, 0) for constant player-1 controls lam * ones on
    a 200-step grid, all stepped on one draw (`_constant_sweep`).  The
    caller inspects the trend; unboundedness below is never asserted.
    Raises ContractViolation, before any simulation, unless every scalar is
    finite."""
    scalars = [float(lam) for lam in scalars]
    if not np.isfinite(scalars).all():
        raise ContractViolation("scalars must be finite")
    grid = TimeGrid(problem.horizon_T, 200)
    _, table, _ = _constant_sweep(problem, x, grid, n_paths, seed, scalars, [])
    return list(zip(scalars, table))
