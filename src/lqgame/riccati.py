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
one, a regularized family a stack of its levels.  A member that fails
leaves the stack, keeping the error and partial path a solve of it alone
raises; every member equals that solve bit for bit.

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
    _check_integer, _eig_extremes, _fro_norms, _sample_stack, _solve,
)

KINDS = ("game", "player1", "player2")


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
    """Symmetric matrix path P(t_k) on a uniform grid plus per-node
    regularity margins."""

    grid: TimeGrid
    P_nodes: np.ndarray          # (n_steps+1, n, n)
    margin1_nodes: np.ndarray    # lambda_min(R11 + D1' P D1) per node
    margin2_nodes: np.ndarray    # lambda_max(R22 + D2' P D2) per node
    kind: str

    def P0(self) -> np.ndarray:
        return self.P_nodes[0]


class _Kinds(NamedTuple):
    """What the kinds of a stack's members decide: the limits of the margins
    each one checks (NaN where it checks none, as no margin compares true
    with NaN), and (members, block) per kind present -- the slice of the
    members' positions and the control block of R_P and rows of S_P that
    their equation uses.  ``of`` refuses a stack whose kinds interleave (no
    stack the library builds does), so every group's blocks are views."""

    floor1: np.ndarray
    ceiling2: np.ndarray
    groups: list

    @classmethod
    def of(cls, kinds: np.ndarray, m1: int, eps_reg: float) -> "_Kinds":
        blocks = {"game": slice(None), "player1": slice(None, m1),
                  "player2": slice(m1, None)}
        cuts = [0, *np.flatnonzero(kinds[1:] != kinds[:-1]) + 1, len(kinds)]
        groups = [(slice(a, b), blocks[kinds[a]])
                  for a, b in zip(cuts, cuts[1:]) if a < b]
        if len(groups) > len(set(kinds)):
            raise ContractViolation("members of one kind must be adjacent")
        return cls(np.where(kinds != "player2", eps_reg, np.nan),
                   np.where(kinds != "player1", -eps_reg, np.nan), groups)

    def failing_sides(self, margin1, margin2) -> np.ndarray | None:
        """Per member, the side whose margin it violates (1 before 2), or 0;
        None when no member violates one.  Margins exactly at +-eps_reg
        count as violations (strict inequality)."""
        side1, side2 = margin1 <= self.floor1, margin2 >= self.ceiling2
        if not (side1 | side2).any():
            return None
        return np.where(side1, 1, np.where(side2, 2, 0))


def _field(row: CoefficientTable, P: np.ndarray, R_P: np.ndarray,
           S_P: np.ndarray, groups: list) -> np.ndarray:
    """dP/dt at one row of a coefficient table for a stack of P, given R_P
    and S_P there:

        -[P A + A'P + C'P C + Q - S_k' R_k^{-1} S_k]

    with each member's blocks S_k, R_k (see _Kinds), which must pass their
    margin checks: that makes every R_k nonsingular."""
    A, C = row.A, row.C
    F = P @ A + A.mT @ P + C.mT @ P @ C + row.Q
    for members, block in groups:
        S_k = S_P[members, block]
        F[members] -= S_k.mT @ _solve(R_P[members, block, block], S_k)
    return sym(-F)


def _unchanged(X: np.ndarray) -> np.ndarray:
    return X


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
    nodes, h, eps, m1 = grid.nodes, grid.dt, config.eps_reg, problem.m1

    # stage times: node t_k in row 2k, midpoint of [t_k, t_k+1] in row 2k+1
    times = np.empty(2 * grid.n_steps + 1)
    times[0::2] = nodes
    times[1::2] = 0.5 * (nodes[:-1] + nodes[1:])
    shared = all(p is problem for p in problems)
    if shared:
        table = coefficients(problem, times)
    else:
        table = CoefficientTable(*(
            np.stack(a, axis=1)
            for a in zip(*(coefficients(p, times) for p in problems))))

    kinds = np.array(kinds)
    P_path = np.empty((len(kinds), grid.n_steps + 1, problem.n, problem.n))
    margin_path = np.empty((2, len(kinds), grid.n_steps + 1))
    # outcomes see the paths through read-only views: the memo shares them
    P_out, margin_out = P_path.view(), margin_path.view()
    for a in (nodes, P_out, margin_out):
        a.setflags(write=False)
    outcomes = [None] * len(kinds)
    live = np.arange(len(kinds))
    live_kinds = _Kinds.of(kinds, m1, eps)

    rows = [table.row(j) for j in range(times.shape[0])]

    def row(j):
        return rows[j] if shared else CoefficientTable(*(a[live] for a in rows[j]))

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
        live_kinds = _Kinds.of(kinds[live], m1, eps)
        return keep

    def evaluate(j, done, X, *carried, node=None):
        """Assemble at stage row j for the live members' stage values X,
        recorded as node ``node`` when given, and retire the members whose
        margin fails there (partial path over nodes done..N).  Returns dP/dt
        of the rest, except at node 0 where it is never used, and their rows
        of X and carried."""
        r = row(j)
        R_P, S_P, margins = _assemble(r, X, m1)
        if node is not None:
            P_path[live, node] = X
            margin_path[0, live, node], margin_path[1, live, node] = margins
        sides = live_kinds.failing_sides(*margins)
        if sides is not None:
            keep = retire(sides > 0, done, lambda pos, partial: RegularityError(
                times[j], int(sides[pos]), margins[sides[pos] - 1][pos], partial))
            X, R_P, S_P, *carried = (a[keep] for a in (X, R_P, S_P, *carried))
            r = row(j)
        slope = None if node == 0 else _field(r, X, R_P, S_P, live_kinds.groups)
        return slope, (X, *carried)

    # a node's assembly serves both its margin check and the next step's k1
    k1, (P,) = evaluate(2 * grid.n_steps, grid.n_steps,
                        np.array([p.cost.G for p in problems]),
                        node=grid.n_steps)
    # sym returns a stage value P - c k_i, and the step's new P, unchanged
    # bit for bit once P is exactly symmetric, as every k_i = sym(-F) is,
    # unless an entry above max/2 overflows in its sum.  A P that passed the
    # norm check has entries below sqrt(max), a k_i none above max/2, so
    # that takes a factor c > 1, a step h > 1.  So sym runs on the first
    # step, whose P is G, symmetric only within check_symmetric's rtol, and
    # on every step of a grid with h > 1.
    for k in range(grid.n_steps, 0, -1):
        if not live.size:
            break
        tidy = sym if k == grid.n_steps or h > 1 else _unchanged
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
            margin2_nodes=margin_out[1, i], kind=str(kinds[i]))
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
    """Check the sandwich P1 <= P <= P2 node-by-node, to within 1e-8."""
    if not (game.grid.same_as(p1.grid) and game.grid.same_as(p2.grid)):
        raise ContractViolation("comparison_check requires a common grid")
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


def _checked_levels(lambdas) -> list[float]:
    """The penalty levels as floats; ContractViolation unless all are
    positive and strictly decreasing."""
    lambdas = [float(l) for l in lambdas]
    if any(l <= 0 for l in lambdas):
        raise ContractViolation("all penalty levels must be positive")
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
