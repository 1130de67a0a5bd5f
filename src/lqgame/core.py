"""Coefficient containers, the coefficient table, and small dense
linear-algebra kernels.

Everything downstream (Riccati integration, feedback synthesis, simulation)
consumes the types defined here.  This module is the only one that knows how
the two players' coefficients are laid out as blocks -- B = [B1|B2],
D = [D1|D2], S = [S1;S2], R = [[R11,R12],[R21,R22]] -- and how a path is
sampled in time: ``coefficients`` evaluates every path of a problem once for
a whole array of times, and ``interpolate`` is the one linear interpolator of
node values.  The matrix kernels also take stacks over leading (time) axes,
so one call handles every node of a grid.  All containers are immutable
after construction and every function is pure.
"""

from __future__ import annotations

import copyreg
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

SYM_RTOL = 1e-12
COND_LIMIT = 1e12
# coefficient table rows whose operands (of a Riccati stage, or of a step of
# the discrete oracle), which outweigh the rows, are formed at a time: never
# for a whole grid
_CHUNK_ROWS = 64


class LqgError(Exception):
    """Base class for all errors raised by this package."""

    def __reduce__(self):
        # copy and pickle skip __init__: args hold only the message
        return copyreg.__newobj__, (type(self), *self.args), vars(self)


class DomainError(LqgError):
    """An argument lies outside the domain an operation is defined on."""


class ContractViolation(LqgError):
    """Inputs break a documented precondition (shape, grid, symmetry...)."""


class SingularBlockError(LqgError):
    """A block of a structured matrix is numerically singular."""

    def __init__(self, block: str, cond: float):
        self.block = block
        self.cond = cond
        super().__init__(f"block {block!r} is numerically singular (cond~{cond:.3e})")


def sym(M: np.ndarray) -> np.ndarray:
    """Symmetric part (M + M^T)/2 of a float matrix or of each matrix in a
    stack, formed in the buffer of the sum.  An exactly symmetric M comes
    back unchanged, bit for bit, unless an entry above max/2 (~8.99e307)
    overflows in the sum."""
    S = M + M.mT
    S *= 0.5
    return S


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def check_symmetric(M: np.ndarray, name: str) -> None:
    """Raise ContractViolation unless M, or every matrix of a stack, is
    symmetric within SYM_RTOL relative to its own largest entry."""
    scale = np.maximum(1.0, np.abs(M).max(axis=(-2, -1), initial=0.0))
    if np.any(np.abs(M - M.mT).max(axis=(-2, -1), initial=0.0)
              > SYM_RTOL * scale):
        raise ContractViolation(
            f"{name} is not symmetric within {SYM_RTOL:g} relative")


def _check_integer(value, name: str, least: int) -> None:
    """Refuse, naming it, a value that is not an integer >= least."""
    if (not isinstance(value, (int, np.integer)) or isinstance(value, bool)
            or value < least):
        raise ContractViolation(
            f"{name} must be an integer >= {least}, got {value!r}")


def _check_fit(name: str, got, want) -> None:
    """Refuse, naming it and both values, an artifact whose fit (n, m1, m2,
    T, n_steps) differs from ``want`` in an entry both give, not None."""
    i = [k for k, g in enumerate(got[:len(want)]) if g is not None]
    if any(got[k] != want[k] for k in i):
        fit, has, wanted = (f"({', '.join(str(v[k]) for k in i)})" for v in
                            (("n", "m1", "m2", "T", "n_steps"), got, want))
        raise ContractViolation(f"{name} has {fit} = {has}, expected {wanted}")


def _start_state(x, n: int) -> np.ndarray:
    """A copy of the start state ``x`` as a float vector; raises
    ContractViolation unless it is a finite vector of length n."""
    x = np.array(x, float, ndmin=1)
    if x.shape != (n,) or not np.isfinite(x).all():
        raise ContractViolation(
            f"start state x must be a finite vector of length {n}")
    return x


def _check_horizon(T):
    """Refuse a horizon that is not finite and nonnegative; return it, with
    -0.0 (which passes, but whose Brownian draw NumPy refuses as a negative
    scale) as 0.0 and every other value as given."""
    if not 0 <= T < np.inf:
        raise ContractViolation("horizon_T must be finite and nonnegative")
    return abs(T) if T == 0 else T


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Uniform grid t_k = k*T/n_steps on [0, T]."""

    horizon_T: float
    n_steps: int

    def __post_init__(self):
        object.__setattr__(self, "horizon_T", _check_horizon(self.horizon_T))
        _check_integer(self.n_steps, "n_steps", 2)
        object.__setattr__(self, "n_steps", int(self.n_steps))

    @property
    def dt(self) -> float:
        return self.horizon_T / self.n_steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon_T, self.n_steps + 1)


@dataclass(frozen=True, eq=False)
class CoefficientPath:
    """A matrix-valued coefficient on [0, T]: constant or uniformly sampled.

    For ``kind == "sampled"``, ``values`` has shape (k, rows, cols) with k >= 2
    samples at uniform times spanning [0, span].  For ``kind == "constant"``,
    ``values`` has shape (rows, cols) and ``span`` is None.
    """

    kind: str
    values: np.ndarray
    span: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values))
        if not np.isfinite(self.values).all():
            raise ContractViolation("coefficient values must be finite")
        if self.kind == "constant":
            if self.values.ndim != 2:
                raise ContractViolation("constant path needs a 2-d matrix")
        elif self.kind == "sampled":
            if self.values.ndim != 3 or self.values.shape[0] < 2:
                raise ContractViolation("sampled path needs >= 2 stacked matrices")
            if self.span is None or not 0 < self.span < np.inf:
                raise ContractViolation("sampled path needs a finite positive span")
        else:
            raise ContractViolation(f"unknown path kind {self.kind!r}")

    @classmethod
    def constant(cls, M) -> "CoefficientPath":
        return cls("constant", np.atleast_2d(np.array(M, dtype=float)))

    @classmethod
    def sampled(cls, stack, span: float) -> "CoefficientPath":
        return cls("sampled", np.array(stack, dtype=float), float(span))

    @property
    def rows(self) -> int:
        return self.values.shape[-2]

    @property
    def cols(self) -> int:
        return self.values.shape[-1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return not np.any(self.values)


def interpolate(values: np.ndarray, span: float, times) -> np.ndarray:
    """Linear interpolation of node values ``values[0..k]``, taken at the
    uniform times ``j * span / k``, at every entry of ``times``.

    Returns one value per time, stacked on a leading axis; a time within a
    few ulps of a node, such as every entry of ``np.linspace(0, span, k+1)``,
    returns that node's value exactly.  That promise holds for node steps
    span/k >= ~1e-308: below, the step is subnormal and ``np.linspace``
    places its nodes too far from ``j * span / k`` to snap.  Raises
    DomainError for a time outside [0, span].
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    outside = ~((times >= -1e-14) & (times <= span * (1 + 1e-14)))
    if outside.any():
        raise DomainError(f"t={times[outside][0]} outside [0, {span}]")
    k = values.shape[0] - 1
    s = np.clip(times / span, 0.0, 1.0) * k
    # j * span / k divided back by span/k can miss j by a few ulps; a node
    # must still return its own value, not a blend with a neighbour
    s_node = np.rint(s)
    s = np.where(np.abs(s - s_node) <= 16 * np.finfo(float).eps * k, s_node, s)
    i = np.minimum(np.floor(s).astype(int), k - 1)
    w = (s - i).reshape((-1,) + (1,) * (values.ndim - 1))
    return np.where(w == 0.0, values[i],
                    (1.0 - w) * values[i] + w * values[i + 1])


@dataclass(frozen=True, eq=False)
class StateDynamics:
    """Coefficients of the controlled linear SDE
    dX = (A X + B1 u1 + B2 u2) dt + (C X + D1 u1 + D2 u2) dW."""

    A: CoefficientPath
    B1: CoefficientPath
    B2: CoefficientPath
    C: CoefficientPath
    D1: CoefficientPath
    D2: CoefficientPath

    def __post_init__(self):
        n = self.A.rows
        m1, m2 = self.B1.cols, self.B2.cols
        if n < 1 or m1 < 1 or m2 < 1:
            raise ContractViolation("need n >= 1, m1 >= 1, m2 >= 1")
        expected = {
            "A": (n, n), "B1": (n, m1), "B2": (n, m2),
            "C": (n, n), "D1": (n, m1), "D2": (n, m2),
        }
        for name, shape in expected.items():
            got = getattr(self, name).shape
            if got != shape:
                raise ContractViolation(f"dynamics.{name} has shape {got}, expected {shape}")

    @property
    def n(self) -> int:
        return self.A.rows

    @property
    def m1(self) -> int:
        return self.B1.cols

    @property
    def m2(self) -> int:
        return self.B2.cols


def _sample_stack(path: CoefficientPath) -> np.ndarray:
    """All raw samples of a path as a (k, rows, cols) stack (k=1 if constant)."""
    if path.kind == "constant":
        return path.values[None, :, :]
    return path.values


@dataclass(frozen=True, eq=False)
class CostWeights:
    """Weights of the quadratic payoff: terminal G plus running blocks
    Q, S1, S2, R11, R12, R21, R22.

    Stored symmetry (G, Q, R11, R22, R21 = R12^T) is validated, never
    silently repaired.
    """

    G: np.ndarray
    Q: CoefficientPath
    S1: CoefficientPath
    S2: CoefficientPath
    R11: CoefficientPath
    R12: CoefficientPath
    R21: CoefficientPath
    R22: CoefficientPath

    def __post_init__(self):
        object.__setattr__(self, "G", _frozen(np.atleast_2d(self.G)))
        if not np.isfinite(self.G).all():
            raise ContractViolation("G must be finite")
        check_symmetric(self.G, "G")
        for name in ("Q", "R11", "R22"):
            path = getattr(self, name)
            for k, M in enumerate(_sample_stack(path)):
                check_symmetric(M, f"{name}[{k}]")
        a = _sample_stack(self.R12)
        b = _sample_stack(self.R21)
        if a.shape[0] != b.shape[0]:
            raise ContractViolation("R12 and R21 must share sampling")
        scale = max(1.0, float(np.abs(a).max(initial=0.0)))
        if np.abs(a - np.transpose(b, (0, 2, 1))).max(initial=0.0) > SYM_RTOL * scale:
            raise ContractViolation("R21 must equal R12^T at every sample")

    @property
    def n(self) -> int:
        return self.G.shape[0]

    @property
    def m1(self) -> int:
        return self.R11.rows

    @property
    def m2(self) -> int:
        return self.R22.rows


@dataclass(frozen=True, eq=False)
class GameProblem:
    """The full game tuple: dynamics, cost weights, and horizon."""

    dynamics: StateDynamics
    cost: CostWeights
    horizon_T: float

    def __post_init__(self):
        object.__setattr__(self, "horizon_T", _check_horizon(self.horizon_T))
        dyn, cost = self.dynamics, self.cost
        _check_fit("cost", (cost.n, cost.m1, cost.m2), (dyn.n, dyn.m1, dyn.m2))
        expected = {
            "cost.Q": (dyn.n, dyn.n), "cost.S1": (dyn.m1, dyn.n),
            "cost.S2": (dyn.m2, dyn.n), "cost.R11": (dyn.m1, dyn.m1),
            "cost.R12": (dyn.m1, dyn.m2), "cost.R21": (dyn.m2, dyn.m1),
            "cost.R22": (dyn.m2, dyn.m2),
        }
        for name, shape in expected.items():
            path = getattr(cost, name.split(".")[1])
            if path.shape != shape:
                raise ContractViolation(f"{name} has shape {path.shape}, expected {shape}")
        for holder in (dyn, cost):
            for name in vars(holder):
                path = getattr(holder, name)
                if isinstance(path, CoefficientPath) and path.kind == "sampled":
                    if not np.isclose(path.span, self.horizon_T, rtol=1e-12, atol=1e-12):
                        raise ContractViolation(
                            f"sampled path {name} spans [0,{path.span}], horizon is {self.horizon_T}")

    @property
    def n(self) -> int:
        return self.dynamics.n

    @property
    def m1(self) -> int:
        return self.dynamics.m1

    @property
    def m2(self) -> int:
        return self.dynamics.m2

    @property
    def fit(self) -> tuple:
        return (self.n, self.m1, self.m2, self.horizon_T)

    def is_deterministic(self) -> bool:
        dyn = self.dynamics
        return dyn.C.is_zero() and dyn.D1.is_zero() and dyn.D2.is_zero()


def _constant_in_time(problem: GameProblem) -> bool:
    """Whether every coefficient path of a problem is constant, so that one
    row of a coefficient table serves every time."""
    return not any(getattr(path, "kind", None) == "sampled"
                   for part in (problem.dynamics, problem.cost)
                   for path in vars(part).values())


class CoefficientTable(NamedTuple):
    """Every coefficient of a game sampled at an array of times, stacked on
    a leading time axis (m = m1 + m2):

    A, C, Q (k, n, n); B = [B1|B2] and D = [D1|D2] (k, n, m);
    S = [S1;S2] (k, m, n); R = [[R11, R12], [R21, R22]] (k, m, m).
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    Q: np.ndarray
    S: np.ndarray
    R: np.ndarray


def _sample(path: CoefficientPath, times: np.ndarray) -> np.ndarray:
    if path.kind == "constant":
        return np.broadcast_to(path.values, (times.shape[0],) + path.shape)
    return interpolate(path.values, path.span, times)


def coefficients(problem: GameProblem, times) -> CoefficientTable:
    """Evaluate every coefficient path once at each of ``times`` and stack
    the two players' blocks.

    Row j holds each constant path's matrix and each sampled path's
    ``interpolate`` at ``times[j]``, bit for bit.  Raises DomainError for a
    time outside the span of a sampled path.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    dyn, cost = problem.dynamics, problem.cost

    def at(*rows):
        # np.block lays out a join of broadcast constants time-fastest; rows
        # must stay contiguous matrices, as BLAS results depend on layout
        return np.ascontiguousarray(
            np.block([[_sample(p, times) for p in row] for row in rows]))

    table = CoefficientTable(
        A=_sample(dyn.A, times), B=at([dyn.B1, dyn.B2]),
        C=_sample(dyn.C, times), D=at([dyn.D1, dyn.D2]),
        Q=_sample(cost.Q, times), S=at([cost.S1], [cost.S2]),
        R=at([cost.R11, cost.R12], [cost.R21, cost.R22]))
    for a in table:
        a.setflags(write=False)
    return table


# np.linalg.solve and eigvalsh as bare LAPACK gufuncs: same bits without the
# wrappers' overhead, but a singular matrix gives NaN and a RuntimeWarning,
# not LinAlgError, so callers first check that it is nonsingular.
def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(a, b) for matrix (not vector) right-hand sides b."""
    return _umath_linalg.solve(a, b, signature="dd->d")


def _eig_extremes(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest eigenvalue of each matrix of a stack that is
    symmetric by construction (no check); scalars for a single matrix."""
    w = (S[..., 0] if S.shape[-2:] == (1, 1)
         else _umath_linalg.eigvalsh_lo(S, signature="d->d"))
    return w[..., 0][()], w[..., -1][()]


def _solve_regular(R: np.ndarray, b: np.ndarray) -> np.ndarray:
    """_solve(R, b) for a stack of control blocks R; raises
    SingularBlockError naming block "R" at the first matrix of the stack
    whose condition exceeds COND_LIMIT."""
    cond = np.linalg.cond(R)
    bad = np.flatnonzero(cond > COND_LIMIT)
    if bad.size:
        raise SingularBlockError("R", float(cond[bad[0]]))
    return _solve(R, b)


def _assembly_rows(table: CoefficientTable) -> tuple:
    """The operands K = [C D | A B], V and H = [[Q, S'], [S, R]] / 2 of
    ``_assemble`` at each row of a coefficient table; column 2i of V is half
    of row i of [C D], and column 2i+1 is the unit vector e_i."""
    H = np.block([[table.Q, table.S.mT], [table.S, table.R]])
    H *= 0.5
    K = np.concatenate((table.C, table.D, table.A, table.B), axis=-1)
    n, half = K.shape[-2], K.shape[-1] // 2
    V = np.zeros(K.shape[:-2] + (half, 2 * n))
    np.multiply(K[..., :half].mT, 0.5, out=V[..., 0::2])
    V[..., range(n), range(1, 2 * n, 2)] = 1.0
    return K, V, H


def _assemble(rows: tuple, P: np.ndarray, out=None) -> np.ndarray:
    """The quadratic block of the Riccati field, from the operands (K, V, H)
    of ``_assembly_rows`` and a P, or a stack of P, symmetric by
    construction (no check):

        Big = [[P A + A'P + C'P C + Q, S_P'], [S_P, R_P]] = X + X',

    R_P = R + D'P D, S_P = B'P + D'P C + S; X = V (P K) + H = [[P A + C'P C/2
    + Q/2, *], [D'P C/2 + S/2, D'P D/2 + R/2]], P K reshaped to (2n, n+m) to
    interleave the rows of P [C D] and P [A B].  Big is symmetric bit for
    bit; it is written into ``out`` when given."""
    K, V, H = rows
    n = P.shape[-1]
    PK = P @ K
    X = V @ PK.reshape(PK.shape[:-2] + (2 * n, K.shape[-1] // 2))
    X += H
    return np.add(X, X.mT, out=out)


def _margins(R_P: np.ndarray, m1: int) -> tuple[np.ndarray, np.ndarray]:
    """The regularity margins of a control block R_P, or of each of a stack,
    symmetric by construction (no check): lambda_min of its player-1 block
    (the first m1 rows and columns), lambda_max of its player-2 block."""
    return (_eig_extremes(R_P[..., :m1, :m1])[0],
            _eig_extremes(R_P[..., m1:, m1:])[1])


def _fro_norms(M: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, computed as np.linalg.norm
    computes it for one matrix: the dot product of the raveled matrix with
    itself."""
    flat = M.reshape(M.shape[0], 1, M.shape[-2] * M.shape[-1])
    return np.sqrt(flat @ flat.mT)[:, 0, 0]


def linear_flow(F_nodes: np.ndarray, span: float, X0: np.ndarray) -> np.ndarray:
    """Classical fourth-order Runge--Kutta for X' = F(t) X, X(0) = X0 (a
    vector or a matrix), with F given at the nodes of a uniform grid on
    [0, span]; returns X at every node."""
    n_steps = F_nodes.shape[0] - 1
    nodes = np.linspace(0.0, span, n_steps + 1)
    F_mid = interpolate(F_nodes, span, 0.5 * (nodes[:-1] + nodes[1:]))
    h = span / n_steps
    X, path = X0, [X0]
    for k in range(n_steps):
        k1 = F_nodes[k] @ X
        k2 = F_mid[k] @ (X + 0.5 * h * k1)
        k3 = F_mid[k] @ (X + 0.5 * h * k2)
        k4 = F_nodes[k + 1] @ (X + h * k3)
        X = X + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        path.append(X)
    return np.array(path)
