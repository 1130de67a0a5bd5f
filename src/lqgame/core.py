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


def check_symmetric(M: np.ndarray, name: str, rtol: float = SYM_RTOL) -> None:
    """Raise ContractViolation unless M, or every matrix of a stack, is
    symmetric within rtol relative to its own largest entry."""
    scale = np.maximum(1.0, np.abs(M).max(axis=(-2, -1), initial=0.0))
    if np.any(np.abs(M - M.mT).max(axis=(-2, -1), initial=0.0) > rtol * scale):
        raise ContractViolation(f"{name} is not symmetric within {rtol:g} relative")


def _check_integer(value, name: str, least: int) -> None:
    """Refuse, naming it, a value that is not an integer >= least."""
    if (not isinstance(value, (int, np.integer)) or isinstance(value, bool)
            or value < least):
        raise ContractViolation(
            f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Uniform grid t_k = k*T/n_steps on [0, T]."""

    horizon_T: float
    n_steps: int

    def __post_init__(self):
        if not 0 <= self.horizon_T < np.inf:
            raise ContractViolation("horizon_T must be finite and nonnegative")
        _check_integer(self.n_steps, "n_steps", 2)
        object.__setattr__(self, "n_steps", int(self.n_steps))

    @property
    def dt(self) -> float:
        return self.horizon_T / self.n_steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon_T, self.n_steps + 1)

    def same_as(self, other: "TimeGrid") -> bool:
        return self.n_steps == other.n_steps and self.horizon_T == other.horizon_T


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
        if not 0 <= self.horizon_T < np.inf:
            raise ContractViolation("horizon_T must be finite and nonnegative")
        dyn, cost = self.dynamics, self.cost
        if (dyn.n, dyn.m1, dyn.m2) != (cost.n, cost.m1, cost.m2):
            raise ContractViolation(
                f"dynamics dims {(dyn.n, dyn.m1, dyn.m2)} disagree with "
                f"cost dims {(cost.n, cost.m1, cost.m2)}")
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

    def is_deterministic(self) -> bool:
        dyn = self.dynamics
        return dyn.C.is_zero() and dyn.D1.is_zero() and dyn.D2.is_zero()


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

    def row(self, j: int) -> "CoefficientTable":
        """The coefficients at ``times[j]`` alone, without a time axis."""
        return CoefficientTable(*(a[j] for a in self))


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


def sym_eig_extremes(M: np.ndarray):
    """Smallest and largest eigenvalue of a symmetric matrix, or of each
    matrix of a stack as arrays over its leading axes."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    check_symmetric(M, "sym_eig_extremes argument")
    return _eig_extremes(sym(M))


def block_inverse(M: np.ndarray, L: np.ndarray, N: np.ndarray) -> np.ndarray:
    """Inverse of the 2x2 block matrix [[M, L], [L^T, N]], or of each one in
    a stack (M, L and N share their leading axes).

    Uses the Schur complement Phi = N - L^T M^-1 L:

        [[M^-1 + (M^-1 L) Phi^-1 (M^-1 L)^T,  -(M^-1 L) Phi^-1],
         [-Phi^-1 (M^-1 L)^T,                  Phi^-1          ]]

    Raises SingularBlockError naming the failing block ("M" or "Phi") of the
    first matrix of the stack where M or Phi has condition above COND_LIMIT.
    """
    M, L, N = np.atleast_2d(M), np.atleast_2d(L), np.atleast_2d(N)
    cond_M = np.ravel(np.linalg.cond(M))
    bad = np.flatnonzero(cond_M > COND_LIMIT)
    if bad.size:
        # a singular Phi in a matrix before the first singular M fails first
        j = bad[0]
        block_inverse(*(X.reshape((-1,) + X.shape[-2:])[:j] for X in (M, L, N)))
        raise SingularBlockError("M", float(cond_M[j]))
    Minv_L = np.linalg.solve(M, L)
    Phi = N - L.mT @ Minv_L
    cond_Phi = np.ravel(np.linalg.cond(Phi))
    bad = np.flatnonzero(cond_Phi > COND_LIMIT)
    if bad.size:
        raise SingularBlockError("Phi", float(cond_Phi[bad[0]]))
    Phi_inv = np.linalg.inv(Phi)
    M_inv = np.linalg.inv(M)
    top_left = M_inv + Minv_L @ Phi_inv @ Minv_L.mT
    top_right = -Minv_L @ Phi_inv
    return np.block([[top_left, top_right], [top_right.mT, Phi_inv]])


def assemble(table: CoefficientTable, P: np.ndarray,
             m1: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Form R_P = R + D^T P D and S_P = B^T P + D^T P C + S from one row of
    a coefficient table and one P, or from stacks of both.

    Returns (R_P, S_P, margins) where margins = (lambda_min of the player-1
    diagonal block of R_P, lambda_max of the player-2 diagonal block).
    Raises ContractViolation unless every P is symmetric.
    """
    check_symmetric(P, "P", rtol=1e-10)
    return _assemble(table, P, m1)


def _assemble(table: CoefficientTable, P: np.ndarray,
              m1: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """``assemble`` without the symmetry check, for a P that is symmetric by
    construction."""
    DtP = table.D.mT @ P
    R_P = table.R + DtP @ table.D
    S_P = table.B.mT @ P + DtP @ table.C + table.S
    R_sym = sym(R_P)
    margin1 = _eig_extremes(R_sym[..., :m1, :m1])[0]
    margin2 = _eig_extremes(R_sym[..., m1:, m1:])[1]
    return R_P, S_P, (margin1, margin2)


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
