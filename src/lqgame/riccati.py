"""Backward integration of the game Riccati equation and its two
single-player companions, with strong-regularity monitoring.

The integrator is a fixed-step classical fourth-order scheme running
backward from the terminal condition.  Every slope is symmetrized; after
the first step, where G may be symmetric only to within check_symmetric's
tolerance, every stage value and node is symmetric bit for bit, so it is
not symmetrized again (see _solve_stack).
Regularity margins (lambda_min of the player-1 control block, lambda_max of
the player-2 block) are checked at every stage, not only at nodes, so a sign
loss between nodes is caught at the stage time.

One backward pass (``_solve_stack``) integrates a stack of equations on one
grid, each stage once for the whole stack: a single solve is a stack of
one, a regularized family a stack of its levels, and kinds mix in any
order.  A stage forms every member's quadratic block in two products
(core._assemble) and solves every member's Schur complement at once, each
kind's control block padded to the whole one (_Kinds).  Each node keeps
the block's control rows [S_P R_P], whence its margins and the saddle gain
(synthesis.feedback_gain).  A member that fails leaves the stack, keeping
the error and partial path a solve of it alone raises; every member equals
that solve bit for bit.

The outcomes of a problem's equations are kept per problem object and
solver config while the problem lives (``_outcomes``), and a later
``solve_riccati`` or ``equivalence_report`` of the same problem and config
reuses them.  Their arrays are read-only, since callers share them.  The
certificate integrates the game equation in the same pass as its two
companions, so a game solve after it is a lookup.
"""

from __future__ import annotations

import copy
import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import (
    CoefficientPath, CoefficientTable, ContractViolation, CostWeights,
    GameProblem, LqgError, TimeGrid, coefficients, sym, _assemble,
    _assembly_rows, _check_fit, _check_integer, _eig_extremes, _fro_norms,
    _solve,
)

KINDS = ("game", "player1", "player2")
# table rows whose assembly operands, which outweigh the rows, are formed
# at a time: never for a whole grid
_CHUNK_ROWS = 64


@dataclass(frozen=True)
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
        _check_integer(self.n_steps, "n_steps", 2)
        object.__setattr__(self, "n_steps", int(self.n_steps))


@dataclass(frozen=True, eq=False)
class RiccatiSolution:
    """Symmetric matrix path P(t_k) on a uniform grid plus, per node, the
    regularity margins and the control rows [S_P R_P] they are read from;
    the first m1 of the m1 + m2 controls are player 1's."""

    grid: TimeGrid
    P_nodes: np.ndarray          # (n_steps+1, n, n)
    margin1_nodes: np.ndarray    # lambda_min(R11 + D1' P D1) per node
    margin2_nodes: np.ndarray    # lambda_max(R22 + D2' P D2) per node
    control_nodes: np.ndarray    # S_P = B'P + D'PC + S, R_P = R + D'PD
    kind: str
    m1: int

    def P0(self) -> np.ndarray:
        return self.P_nodes[0]

    @property
    def fit(self) -> tuple:
        n, m = self.P_nodes.shape[-1], len(self.control_nodes[0])
        return (n, self.m1, m - self.m1, self.grid.horizon_T, self.grid.n_steps)


class _Kinds(NamedTuple):
    """What the kinds of a stack's members decide, one row per member: the
    limits of the margins each one checks (NaN where it checks none, as no
    margin compares true with NaN), and how its Schur complement is padded
    to the whole control block.  Where ``mask`` is false, the rows
    [S_P R_P] of the quadratic block take ``fill``: the rows of S_P outside
    the member's control block become zero, and its R_P becomes the
    identity there, so one solve serves every kind."""

    floor1: np.ndarray
    ceiling2: np.ndarray
    mask: np.ndarray
    fill: np.ndarray

    @classmethod
    def of(cls, kinds: np.ndarray, n: int, m1: int, m: int,
           eps_reg: float) -> "_Kinds":
        own = np.where(np.arange(m) < m1, kinds[:, None] != "player2",
                       kinds[:, None] != "player1")
        cols = np.pad(own, ((0, 0), (n, 0)), constant_values=True)
        return cls(np.where(kinds != "player2", eps_reg, np.nan),
                   np.where(kinds != "player1", -eps_reg, np.nan),
                   own[:, :, None] & cols[:, None, :],
                   np.pad(np.eye(m) * ~own[:, :, None], ((0, 0), (0, 0), (n, 0))))

    def failing_sides(self, margin1, margin2) -> np.ndarray | None:
        """Per member, the side whose margin it violates (1 before 2), or 0;
        None when no member violates one.  Margins exactly at +-eps_reg
        count as violations (strict inequality)."""
        side1, side2 = margin1 <= self.floor1, margin2 >= self.ceiling2
        if not (side1 | side2).any():
            return None
        return np.where(side1, 1, np.where(side2, 2, 0))


def _field(big: np.ndarray, kinds: _Kinds) -> np.ndarray:
    """dP/dt for a stack of P from its quadratic blocks (core._assemble):

        -[P A + A'P + C'P C + Q - S_k' R_k^{-1} S_k]

    with each member's S_k and R_k padded to the whole control block (see
    _Kinds); every member must pass its margin checks, which makes every
    R_k nonsingular."""
    n = big.shape[-1] - kinds.mask.shape[1]
    lower = np.where(kinds.mask, big[..., n:, :], kinds.fill)
    S_k = lower[..., :n]
    F = S_k.mT @ _solve(lower[..., n:], S_k)
    F -= big[..., :n, :n]
    return sym(F)


def _solve_stack(problems, kinds, config: SolverConfig) -> list:
    """Integrate one Riccati equation per (problem, kind) pair backward from
    P(T) = G in one pass over one grid, each stage once for the whole stack.

    The problems share horizon and dimensions; members of one problem share
    its coefficient table, and members of different problems (the levels of
    a regularized family) each carry their own.  A member whose margin fails
    at a stage, or whose P passes the blow-up cap, leaves the stack there.
    Returns one outcome per member: its RiccatiSolution, or the
    RegularityError or BlowUpError, with partial path, that a pass over it
    alone raises; both equal those of that pass bit for bit.  The arrays of
    the outcomes are read-only.
    """
    problem = problems[0]
    grid = TimeGrid(problem.horizon_T, config.n_steps)
    nodes, h, eps = grid.nodes, grid.dt, config.eps_reg
    n, m1, m = problem.n, problem.m1, problem.m1 + problem.m2

    # stage times: node t_k in row 2k, midpoint of [t_k, t_k+1] in row 2k+1;
    # a game whose coefficients are all constant has one row for them all
    times = np.empty(2 * grid.n_steps + 1)
    times[0::2] = nodes
    times[1::2] = 0.5 * (nodes[:-1] + nodes[1:])
    constant = not any(getattr(path, "kind", None) == "sampled"
                       for p in problems for part in (p.dynamics, p.cost)
                       for path in vars(part).values())
    table_times = times[:1] if constant else times
    shared = all(p is problem for p in problems)
    table = coefficients(problem, table_times) if shared else CoefficientTable(
        *(np.stack(a, axis=1)
          for a in zip(*(coefficients(p, table_times) for p in problems))))

    kinds = np.array(kinds)
    P_path = np.empty((len(kinds), grid.n_steps + 1, n, n))
    margin_path = np.empty((2, len(kinds), grid.n_steps + 1))
    control_path = np.empty((len(kinds), grid.n_steps + 1, m, n + m))
    # outcomes see the paths through read-only views: the memo shares them
    P_out, margin_out, control_out = (
        a.view() for a in (P_path, margin_path, control_path))
    for a in (nodes, P_out, margin_out, control_out):
        a.setflags(write=False)
    outcomes = [None] * len(kinds)
    live = np.arange(len(kinds))
    live_kinds = _Kinds.of(kinds, n, m1, m, eps)

    chunk = {}

    def row(j):
        """The operands of _assemble at stage row j for the live members;
        a chunk of them is formed once the previous one is dropped."""
        j = 0 if constant else j
        lo = j - j % _CHUNK_ROWS
        if lo not in chunk:
            chunk.clear()
            chunk[lo] = _assembly_rows(
                table._make(a[lo:lo + _CHUNK_ROWS] for a in table))
        r = [a[j - lo] for a in chunk[lo]]
        return r if shared else [a[live] for a in r]

    def retire(bad, done, error):
        """Take the live members flagged in bad out of the stack; each keeps
        error(position, its partial path over nodes done..N) as outcome."""
        nonlocal live, live_kinds
        for pos in np.flatnonzero(bad):
            i = live[pos]
            outcomes[i] = error(pos, PartialPath(
                nodes[done:], P_out[i, done:], margin_out[0, i, done:],
                margin_out[1, i, done:]))
        keep = ~bad
        live = live[keep]
        live_kinds = _Kinds(*(a[keep] for a in live_kinds))
        return keep

    def evaluate(j, done, X, *carried, node=None):
        """Assemble at stage row j for the live members' stage values X,
        recorded as node ``node`` when given, and retire the members whose
        margin fails there (partial path over nodes done..N).  Returns dP/dt
        of the rest, except at node 0 where it is never used, and their rows
        of X and carried."""
        big, margins = _assemble(row(j), X, m1)
        if node is not None:
            P_path[live, node] = X
            margin_path[0, live, node], margin_path[1, live, node] = margins
            control_path[live, node] = big[..., n:, :]
        sides = live_kinds.failing_sides(*margins)
        if sides is not None:
            keep = retire(sides > 0, done, lambda pos, partial: RegularityError(
                times[j], int(sides[pos]), margins[sides[pos] - 1][pos], partial))
            X, big, *carried = (a[keep] for a in (X, big, *carried))
        slope = None if node == 0 else _field(big, live_kinds)
        return slope, (X, *carried)

    # a node's assembly serves both its margin check and the next step's k1
    k1, (P,) = evaluate(2 * grid.n_steps, grid.n_steps,
                        np.array([p.cost.G for p in problems]),
                        node=grid.n_steps)
    # sym returns a stage value P - c k_i, and the step's new P, unchanged
    # bit for bit once P is exactly symmetric, as every k_i = sym(F) is,
    # unless an entry above max/2 overflows in its sum.  A P that passed the
    # norm check has entries below sqrt(max), a k_i none above max/2, so
    # that takes a factor c > 1, a step h > 1.  So sym runs on the first
    # step, whose P is G, symmetric only within check_symmetric's rtol, and
    # on every step of a grid with h > 1.
    for k in range(grid.n_steps, 0, -1):
        if not live.size:
            break
        tidy = sym if k == grid.n_steps or h > 1 else lambda X: X
        k2, (_, P, k1) = evaluate(2 * k - 1, k, tidy(P - 0.5 * h * k1), P, k1)
        k3, (_, P, k1, k2) = evaluate(2 * k - 1, k, tidy(P - 0.5 * h * k2),
                                      P, k1, k2)
        k4, (_, P, k1, k2, k3) = evaluate(2 * k - 2, k, tidy(P - h * k3),
                                          P, k1, k2, k3)
        P = tidy(P - (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
        norms = _fro_norms(P)
        bad = ~np.isfinite(norms) | (norms > config.blowup_cap)
        if bad.any():
            P = P[retire(bad, k, lambda pos, partial: BlowUpError(
                nodes[k - 1], float(norms[pos]), partial))]
        k1, (P,) = evaluate(2 * k - 2, k, P, node=k - 1)

    for i in live:
        outcomes[i] = RiccatiSolution(
            grid=grid, P_nodes=P_out[i], margin1_nodes=margin_out[0, i],
            margin2_nodes=margin_out[1, i], control_nodes=control_out[i],
            kind=str(kinds[i]), m1=m1)
    return outcomes


# per problem object and solver config, {kind: its outcome}; an entry goes
# with its problem, which is frozen, hashes by identity and has read-only
# arrays
_MEMO = weakref.WeakKeyDictionary()


def _outcomes(problem: GameProblem, config: SolverConfig, kinds) -> list:
    """The outcome (solution or error) of each equation of ``kinds`` on
    problem under config.  Those not yet stored are integrated in one
    backward pass and stored."""
    memo = _MEMO.setdefault(problem, {}).setdefault(config, {})
    todo = [kind for kind in kinds if kind not in memo]
    if todo:
        memo.update(zip(todo, _solve_stack([problem] * len(todo), todo,
                                           config)))
    return [memo[kind] for kind in kinds]


def solve_riccati(problem: GameProblem, config: SolverConfig,
                  kind: str = "game") -> RiccatiSolution:
    """Integrate the Riccati equation backward from P(T) = G, or reuse the
    outcome of an earlier pass over the same problem object and config.

    On a margin violation or blow-up the raised error carries the partial
    path from the failure time up to T.
    """
    if kind not in KINDS:
        raise ContractViolation(f"unknown kind {kind!r}")
    outcome, = _outcomes(problem, config, (kind,))
    if isinstance(outcome, LqgError):
        # raise a copy: the stored error must never carry a traceback, whose
        # frames would keep the problem, and so its memo entry, alive
        raise copy.copy(outcome)
    return outcome


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
    """Solve the two frozen-opponent Riccati equations, and the game
    equation, in one backward pass.

    Success of both companions (with strong regularity) is sufficient
    evidence for saddle synthesis to proceed; failure of either yields
    NOT_CERTIFIED with the side and time, player 1's deciding when both
    fail.  No converse claim is made: game-Riccati solvability does not
    imply this certificate.

    The game outcome is stored with the two companions', so a later
    ``solve_riccati`` or ``equivalence_report`` of the same problem object
    and config makes no pass of its own.
    """
    p1, p2, _ = _outcomes(problem, config, ("player1", "player2", "game"))
    if isinstance(p1, LqgError):
        return CertificateReport(
            status="NOT_CERTIFIED", failing_side=1, failure_time=p1.time,
            failure_reason=type(p1).__name__)
    if isinstance(p2, LqgError):
        return CertificateReport(
            status="NOT_CERTIFIED", p1=p1, failing_side=2, failure_time=p2.time,
            failure_reason=type(p2).__name__)
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
                     p2: RiccatiSolution) -> ComparisonReport:
    """Check the sandwich P1 <= P <= P2 node-by-node, to within 1e-8.
    Raises ContractViolation, naming the argument, unless game, p1 and p2
    are of the game, player-1 and player-2 kinds and p1 and p2 have game's
    (n, m1, m2) and grid."""
    for name, sol, kind in zip(("game", "p1", "p2"), (game, p1, p2), KINDS):
        if sol.kind != kind:
            raise ContractViolation(f"comparison_check argument {name} must "
                                    f"be a {kind}-kind solution, got {sol.kind!r}")
        _check_fit(name, sol.fit, game.fit)
    lower = _eig_extremes(sym(game.P_nodes - p1.P_nodes))[0]
    upper = _eig_extremes(sym(p2.P_nodes - game.P_nodes))[0]
    tol = 1e-8
    worst = int(np.argmin(np.minimum(lower, upper)))
    return ComparisonReport(
        min_eig_lower=lower, min_eig_upper=upper, tolerance=tol,
        passed=bool(lower.min() >= -tol and upper.min() >= -tol),
        worst_node=worst)


def _shift_path(path: CoefficientPath, delta: float) -> CoefficientPath:
    """Add delta * I to every sample of a square coefficient path."""
    return CoefficientPath(path.kind, path.values + delta * np.eye(path.rows),
                           path.span)


def regularized_problem(problem: GameProblem, lam: float) -> GameProblem:
    """The problem with R11 + lam*I and R22 - lam*I substituted; raises
    ContractViolation unless the penalty level lam is finite."""
    if not np.isfinite(lam):
        raise ContractViolation(f"penalty level must be finite, got {lam!r}")
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


def _checked_levels(lambdas) -> list[float]:
    """The penalty levels as floats; ContractViolation unless all are
    finite, positive and strictly decreasing."""
    lambdas = [float(l) for l in lambdas]
    if not all(0 < l < np.inf for l in lambdas):
        raise ContractViolation("all penalty levels must be finite and positive")
    if any(b >= a for a, b in zip(lambdas, lambdas[1:])):
        raise ContractViolation("penalty levels must be strictly decreasing")
    return lambdas


def solve_lambda_family(problem: GameProblem, lambdas,
                        config: SolverConfig) -> RegularizedFamily:
    """Solve the game Riccati equation for each penalty level, all levels in
    one backward pass.

    Per-level failures are recorded, not raised: level j's solution equals
    ``solve_riccati(regularized_problem(problem, lambdas[j]), config)``.
    """
    lambdas = _checked_levels(lambdas)
    outcomes = _solve_stack(
        [regularized_problem(problem, lam) for lam in lambdas],
        ("game",) * len(lambdas), config) if lambdas else []
    failures = [f"{type(o).__name__}: {o}" if isinstance(o, LqgError) else None
                for o in outcomes]
    solutions = [None if f else o for o, f in zip(outcomes, failures)]
    P0 = [s.P0() if s is not None else None for s in solutions]
    return RegularizedFamily(lambdas=lambdas, solutions=solutions,
                             failures=failures, P0_values=P0)
