"""Noise-free specialization: recover the game Riccati solution explicitly
through the fundamental matrix of the linear Hamiltonian system and
cross-validate it against backward integration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    GameProblem, LqgError, TimeGrid, block_inverse, coefficients, linear_flow,
    sym, sym_eig_extremes, _T, _fro_norms,
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
    definite at every node; raises RegularityError at the first node where
    either fails (player 1 when both do).
    """
    if not problem.is_deterministic():
        raise NotDeterministicError("problem has nonzero C or D coefficients")
    grid = TimeGrid(problem.horizon_T, n_steps)
    table = coefficients(problem, grid.nodes)
    m1 = problem.m1
    A, B, Q, S, R = table.A, table.B, table.Q, table.S, table.R
    R11, R12, R22 = R[:, :m1, :m1], R[:, :m1, m1:], R[:, m1:, m1:]
    lo = sym_eig_extremes(R11)[0]
    hi = sym_eig_extremes(R22)[1]
    bad = np.flatnonzero((lo <= 0) | (hi >= 0))
    if bad.size:
        j = bad[0]
        if lo[j] <= 0:
            raise RegularityError(grid.nodes[j], 1, float(lo[j]))
        raise RegularityError(grid.nodes[j], 2, float(hi[j]))
    R_inv = block_inverse(R11, R12, R22)
    Adj = A - B @ R_inv @ S
    H = np.block([
        [Adj, -B @ R_inv @ _T(B)],
        [-(Q - _T(S) @ R_inv @ S), -_T(Adj)],
    ])
    return HamiltonianPath(grid=grid, H_nodes=H)


def fundamental_matrix(h: HamiltonianPath) -> FundamentalMatrix:
    """Forward fourth-order integration of Psi' = H Psi, Psi(0) = I.

    Raises BlowUpError at the first node where Psi is not finite."""
    Psi = linear_flow(h.H_nodes, h.grid.horizon_T, np.eye(h.H_nodes.shape[-1]))
    finite = np.isfinite(Psi).all(axis=(1, 2))
    if not finite.all():
        raise BlowUpError(h.grid.nodes[np.argmin(finite)], float("inf"))
    return FundamentalMatrix(grid=h.grid, Psi_nodes=Psi)


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
    # Psi(T) Psi(t)^-1 via a linear solve against Psi(t)
    edge = GI @ _T(np.linalg.solve(_T(psi.Psi_nodes), Psi_T.T))
    Lam = edge[:, :, n:]
    # conditioning of the solve for P: Lam may shrink toward a singular
    # matrix while the remaining boundary data stays order one
    sigma_min = np.linalg.svd(Lam, compute_uv=False)[:, -1]
    scale = np.maximum(np.abs(edge).max(axis=(1, 2)), 1.0)
    cond = np.divide(scale, sigma_min, out=np.full_like(scale, np.inf),
                     where=sigma_min > 0)
    bad = np.flatnonzero(cond > cond_limit)
    if bad.size:
        raise RepresentationSingularError(float(psi.grid.nodes[bad[0]]),
                                          float(cond[bad[0]]))
    P = -np.linalg.solve(Lam, edge[:, :, :n])
    return RepresentationResult(
        grid=psi.grid, Lambda_nodes=Lam, P_rep_nodes=sym(P),
        condition_numbers=cond, symmetry_defects=_fro_norms(P - _T(P)))


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
    report the cross-validation error; every outcome is a report field.

    The certificate's two equations and the game equation share one
    backward pass, or reuse an earlier one over the same problem object and
    config."""
    if not problem.is_deterministic():
        raise NotDeterministicError("problem has nonzero C or D coefficients")
    cert = certify_A3(problem, config)
    sol, sol_failure = None, None
    try:
        sol = solve_riccati(problem, config)
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
