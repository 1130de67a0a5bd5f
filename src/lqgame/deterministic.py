"""Noise-free specialization: recover the game Riccati solution explicitly
through the fundamental matrix of the linear Hamiltonian system and
cross-validate it against backward integration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    GameProblem, LqgError, TimeGrid, block_inverse, coefficients, interpolate,
    sym, sym_eig_extremes,
)
from .riccati import (
    BlowUpError, CertificateReport, RegularityError, RiccatiSolution,
    SolverConfig, certify_A3, solve_riccati,
)


class NotDeterministicError(LqgError):
    """The problem has a diffusion part; the representation needs C=D=0."""


class RepresentationSingularError(LqgError):
    """The boundary matrix is numerically singular at some node."""

    def __init__(self, time: float, cond: float):
        self.time = time
        self.cond = cond
        super().__init__(
            f"boundary matrix ill-conditioned at t={time:.6g} (cond~{cond:.3e})")


@dataclass(frozen=True, eq=False)
class HamiltonianPath:
    """Node values of the 2n x 2n Hamiltonian block matrix
    [[A - B R^-1 S, -B R^-1 B'], [-(Q - S' R^-1 S), -(A - B R^-1 S)']]."""

    grid: TimeGrid
    H_nodes: np.ndarray

    def H_at(self, t: float) -> np.ndarray:
        return interpolate(self.H_nodes, self.grid.horizon_T, t)[0]


@dataclass(frozen=True, eq=False)
class FundamentalMatrix:
    """Psi(t_k) with Psi(0) = I; det Psi stays 1 since trace H = 0."""

    grid: TimeGrid
    Psi_nodes: np.ndarray


@dataclass(frozen=True, eq=False)
class RepresentationResult:
    """Boundary matrices, recovered Riccati path, and diagnostics."""

    grid: TimeGrid
    Lambda_nodes: np.ndarray
    P_rep_nodes: np.ndarray
    condition_numbers: np.ndarray
    symmetry_defects: np.ndarray


def hamiltonian(problem: GameProblem, n_steps: int = 2000) -> HamiltonianPath:
    """Assemble the Hamiltonian block matrix at every grid node.

    Requires C = D1 = D2 = 0, R11 positive definite and R22 negative
    definite at every node.
    """
    if not problem.is_deterministic():
        raise NotDeterministicError("problem has nonzero C or D coefficients")
    grid = TimeGrid(problem.horizon_T, n_steps)
    table = coefficients(problem, grid.nodes)
    m1 = problem.m1
    H = []
    for t, A, B, Q, S, R in zip(grid.nodes, table.A, table.B, table.Q,
                                table.S, table.R):
        R11, R12, R22 = R[:m1, :m1], R[:m1, m1:], R[m1:, m1:]
        lo = sym_eig_extremes(R11)[0]
        hi = sym_eig_extremes(R22)[1]
        if lo <= 0:
            raise RegularityError(t, 1, lo)
        if hi >= 0:
            raise RegularityError(t, 2, hi)
        R_inv = block_inverse(R11, R12, R22)
        Adj = A - B @ R_inv @ S
        H.append(np.block([
            [Adj, -B @ R_inv @ B.T],
            [-(Q - S.T @ R_inv @ S), -Adj.T],
        ]))
    return HamiltonianPath(grid=grid, H_nodes=np.array(H))


def fundamental_matrix(h: HamiltonianPath) -> FundamentalMatrix:
    """Forward fourth-order integration of Psi' = H Psi, Psi(0) = I."""
    dim = h.H_nodes.shape[-1]
    nodes = h.grid.nodes
    dt = h.grid.dt
    Psi = np.eye(dim)
    out = [Psi]
    for k in range(h.grid.n_steps):
        t0, t1 = nodes[k], nodes[k + 1]
        Hm = h.H_at(0.5 * (t0 + t1))
        k1 = h.H_nodes[k] @ Psi
        k2 = Hm @ (Psi + 0.5 * dt * k1)
        k3 = Hm @ (Psi + 0.5 * dt * k2)
        k4 = h.H_nodes[k + 1] @ (Psi + dt * k3)
        Psi = Psi + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(Psi)):
            raise BlowUpError(t1, float("inf"))
        out.append(Psi)
    return FundamentalMatrix(grid=h.grid, Psi_nodes=np.array(out))


def representation(problem: GameProblem, psi: FundamentalMatrix,
                   G: np.ndarray | None = None,
                   cond_limit: float = 1e10) -> RepresentationResult:
    """Recover P(t) from the fundamental matrix:

        Lambda(t) = (G, -I) Psi(T) Psi(t)^-1 (0; I)
        P(t)      = -Lambda(t)^-1 (G, -I) Psi(T) Psi(t)^-1 (I; 0)

    P is symmetrized after its symmetry defect is recorded.
    """
    n = problem.n
    G = np.atleast_2d(problem.cost.G if G is None else np.asarray(G, float))
    Psi_T = psi.Psi_nodes[-1]
    GI = np.hstack([G, -np.eye(n)])
    lambdas, P_rep, conds, defects = [], [], [], []
    for t, Psi_t in zip(psi.grid.nodes, psi.Psi_nodes):
        # Psi(T) Psi(t)^-1 via a linear solve against Psi(t)
        M = np.linalg.solve(Psi_t.T, Psi_T.T).T
        edge = GI @ M
        Lam = edge[:, n:]
        # conditioning of the solve for P: Lam may shrink toward a singular
        # matrix while the remaining boundary data stays order one
        sigma_min = float(np.linalg.svd(Lam, compute_uv=False)[-1])
        scale = max(float(np.abs(edge).max()), 1.0)
        cond = scale / sigma_min if sigma_min > 0 else np.inf
        if cond > cond_limit:
            raise RepresentationSingularError(float(t), cond)
        P = -np.linalg.solve(Lam, edge[:, :n])
        defect = float(np.linalg.norm(P - P.T))
        lambdas.append(Lam)
        P_rep.append(sym(P))
        conds.append(cond)
        defects.append(defect)
    return RepresentationResult(
        grid=psi.grid, Lambda_nodes=np.array(lambdas),
        P_rep_nodes=np.array(P_rep), condition_numbers=np.array(conds),
        symmetry_defects=np.array(defects))


@dataclass
class EquivalenceReport:
    """Joint outcome of the certificate, the backward game solve, and the
    explicit representation on a noise-free problem."""

    certificate: CertificateReport
    riccati: RiccatiSolution | None
    riccati_failure: str | None
    rep: RepresentationResult | None
    rep_failure: str | None
    cross_error: float | None

    @property
    def all_succeeded(self) -> bool:
        return (self.certificate.certified and self.riccati is not None
                and self.rep is not None)


def equivalence_report(problem: GameProblem,
                       config: SolverConfig) -> EquivalenceReport:
    """Run certificate, backward solve, and representation together and
    report the cross-validation error; every outcome is a report field."""
    if not problem.is_deterministic():
        raise NotDeterministicError("problem has nonzero C or D coefficients")
    cert = certify_A3(problem, config)

    sol, sol_failure = None, None
    try:
        sol = solve_riccati(problem, config, "game")
    except (RegularityError, BlowUpError) as err:
        sol_failure = f"{type(err).__name__}: {err}"

    rep, rep_failure = None, None
    try:
        rep = representation(
            problem, fundamental_matrix(hamiltonian(problem, config.n_steps)))
    except (RegularityError, BlowUpError, RepresentationSingularError) as err:
        rep_failure = f"{type(err).__name__}: {err}"

    cross = None
    if sol is not None and rep is not None:
        cross = float(max(
            np.linalg.norm(a - b)
            for a, b in zip(rep.P_rep_nodes, sol.P_nodes)))
    return EquivalenceReport(certificate=cert, riccati=sol,
                             riccati_failure=sol_failure, rep=rep,
                             rep_failure=rep_failure, cross_error=cross)
