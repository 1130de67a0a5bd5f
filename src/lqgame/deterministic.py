"""Noise-free specialization: recover the game Riccati solution explicitly
through the fundamental matrix of the linear Hamiltonian system and
cross-validate it against backward integration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ContractViolation, GameProblem, LqgError, SingularBlockError, TimeGrid,
    coefficients, linear_flow, sym, _fro_norms, _margins, _solve_regular,
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
class RepresentationResult:
    """Boundary matrices, recovered Riccati path, and diagnostics."""

    grid: TimeGrid
    Lambda_nodes: np.ndarray
    P_rep_nodes: np.ndarray
    condition_numbers: np.ndarray
    symmetry_defects: np.ndarray


def hamiltonian(problem: GameProblem, n_steps: int = 2000) -> np.ndarray:
    """The 2n x 2n Hamiltonian block matrix

        [[A - B R^-1 S, -B R^-1 B'], [-(Q - S' R^-1 S), -(A - B R^-1 S)']]

    at every node of the uniform grid of n_steps steps on [0, T], stacked
    as an (n_steps+1, 2n, 2n) array.

    Requires C = D1 = D2 = 0, R11 positive definite and R22 negative
    definite at every node; raises RegularityError at the first node where
    either fails (player 1 when both do), and SingularBlockError (block
    "R") at the first node where R has condition above COND_LIMIT.
    """
    if not problem.is_deterministic():
        raise NotDeterministicError("problem has nonzero C or D coefficients")
    grid = TimeGrid(problem.horizon_T, n_steps)
    table = coefficients(problem, grid.nodes)
    n, m1 = problem.n, problem.m1
    A, B, Q, S, R = table.A, table.B, table.Q, table.S, table.R
    lo, hi = _margins(sym(R), m1)
    bad = np.flatnonzero((lo <= 0) | (hi >= 0))
    if bad.size:
        j = bad[0]
        if lo[j] <= 0:
            raise RegularityError(grid.nodes[j], 1, float(lo[j]))
        raise RegularityError(grid.nodes[j], 2, float(hi[j]))
    X = _solve_regular(R, np.concatenate((S, B.mT), axis=-1))
    Rinv_S, Rinv_Bt = X[..., :n], X[..., n:]
    Adj = A - B @ Rinv_S
    H = np.block([
        [Adj, -B @ Rinv_Bt],
        [-(Q - S.mT @ Rinv_S), -Adj.mT],
    ])
    return H


def fundamental_matrix(H_nodes: np.ndarray, horizon_T: float) -> np.ndarray:
    """Forward fourth-order integration of Psi' = H Psi, Psi(0) = I, with H
    given at the nodes of the uniform grid on [0, horizon_T]; returns Psi
    at every node.  det Psi stays 1 since trace H = 0.

    Raises BlowUpError at the first node where Psi is not finite."""
    Psi = linear_flow(H_nodes, horizon_T, np.eye(H_nodes.shape[-1]))
    finite = np.isfinite(Psi).all(axis=(1, 2))
    if not finite.all():
        grid = TimeGrid(horizon_T, len(H_nodes) - 1)
        raise BlowUpError(grid.nodes[np.argmin(finite)], float("inf"))
    return Psi


def representation(problem: GameProblem,
                   Psi_nodes: np.ndarray) -> RepresentationResult:
    """Recover P(t) from the fundamental matrix Psi at the nodes of the
    uniform grid on [0, T]:

        Lambda(t) = (G, -I) Psi(T) Psi(t)^-1 (0; I)
        P(t)      = -Lambda(t)^-1 (G, -I) Psi(T) Psi(t)^-1 (I; 0)

    P is symmetrized after its symmetry defect is recorded.  A node whose
    solve for P has condition above 1e10 raises RepresentationSingularError.

    Psi_nodes is a bare array: it carries no horizon, so the caller must
    integrate Psi over the problem's own horizon, as ``fundamental_matrix(
    hamiltonian(problem, k), problem.horizon_T)`` does; its k steps set the
    grid.  Raises ContractViolation, naming Psi_nodes, unless it is a finite
    (k+1, 2n, 2n) stack with k >= 2 for the problem's n.
    """
    n = problem.n
    Psi_nodes = np.asarray(Psi_nodes, dtype=float)
    if (Psi_nodes.ndim != 3 or len(Psi_nodes) < 3
            or Psi_nodes.shape[1:] != (2 * n, 2 * n)
            or not np.isfinite(Psi_nodes).all()):
        raise ContractViolation(
            f"Psi_nodes must be a finite (k+1, {2 * n}, {2 * n}) stack with "
            f"k >= 2, got shape {Psi_nodes.shape}")
    grid = TimeGrid(problem.horizon_T, len(Psi_nodes) - 1)
    Psi_T = Psi_nodes[-1]
    GI = np.hstack([problem.cost.G, -np.eye(n)])
    # Psi(T) Psi(t)^-1 via a linear solve against Psi(t)
    edge = GI @ np.linalg.solve(Psi_nodes.mT, Psi_T.T).mT
    Lam = edge[:, :, n:]
    # conditioning of the solve for P: Lam may shrink toward a singular
    # matrix while the remaining boundary data stays order one
    sigma_min = np.linalg.svd(Lam, compute_uv=False)[:, -1]
    scale = np.maximum(np.abs(edge).max(axis=(1, 2)), 1.0)
    cond = np.divide(scale, sigma_min, out=np.full_like(scale, np.inf),
                     where=sigma_min > 0)
    bad = np.flatnonzero(cond > 1e10)
    if bad.size:
        raise RepresentationSingularError(float(grid.nodes[bad[0]]),
                                          float(cond[bad[0]]))
    P = -np.linalg.solve(Lam, edge[:, :, :n])
    return RepresentationResult(
        grid=grid, Lambda_nodes=Lam, P_rep_nodes=sym(P),
        condition_numbers=cond, symmetry_defects=_fro_norms(P - P.mT))


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
        rep = representation(problem, fundamental_matrix(
            hamiltonian(problem, config.n_steps), problem.horizon_T))
    except (RegularityError, SingularBlockError, BlowUpError,
            RepresentationSingularError) as err:
        rep_failure = f"{type(err).__name__}: {err}"

    cross = None
    if sol is not None and rep is not None:
        cross = float(_fro_norms(rep.P_rep_nodes - sol.P_nodes).max())
    return EquivalenceReport(certificate=cert, riccati=sol,
                             riccati_failure=sol_failure, rep=rep,
                             rep_failure=rep_failure, cross_error=cross)
