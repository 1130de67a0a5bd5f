import dataclasses
import re

import numpy as np
import pytest
from scipy.linalg import expm

from lqgame import (
    BlowUpError, CoefficientPath, ContractViolation, CostWeights, GameProblem,
    NotDeterministicError, RegularityError, RepresentationSingularError,
    SolverConfig, StateDynamics, TimeGrid, coefficients, equivalence_report,
    fundamental_matrix, hamiltonian, representation, solve_riccati,
)
from conftest import random_game, scalar_game


@pytest.fixture(scope="module")
def det_ham(rand_det_problem):
    return hamiltonian(rand_det_problem, n_steps=400)


@pytest.fixture(scope="module")
def det_psi(rand_det_problem, det_ham):
    return fundamental_matrix(det_ham, rand_det_problem.horizon_T)


class TestHamiltonian:
    def test_rejects_noisy_problem(self, ex3_4):
        with pytest.raises(NotDeterministicError):
            hamiltonian(ex3_4)

    def test_trace_free(self, det_ham):
        traces = np.trace(det_ham, axis1=1, axis2=2)
        assert np.abs(traces).max() < 1e-12

    def test_ex4_5_hamiltonian(self, ex4_5):
        # B R^-1 B' = 1 - 3/2 = -1/2 and everything else vanishes
        H = hamiltonian(ex4_5, n_steps=10)
        assert np.allclose(H[0], [[0.0, 0.5], [0.0, 0.0]])

    def test_shape(self, rand_det_problem, det_ham):
        n = rand_det_problem.n
        assert det_ham.shape == (401, 2 * n, 2 * n)

    @staticmethod
    def sampled_R_game(R11, R22):
        """Noise-free scalar game with R11, R22 linear in t on [0, 1]."""
        c = CoefficientPath.constant
        s = lambda v: CoefficientPath.sampled(np.reshape(v, (-1, 1, 1)), 1.0)
        dyn = StateDynamics(A=c(0.0), B1=c(1.0), B2=c(1.0), C=c(0.0),
                            D1=c(0.0), D2=c(0.0))
        cost = CostWeights(G=np.zeros((1, 1)), Q=c(0.0), S1=c(0.0), S2=c(0.0),
                           R11=s(R11), R12=c(0.0), R21=c(0.0), R22=s(R22))
        return GameProblem(dynamics=dyn, cost=cost, horizon_T=1.0)

    def test_regularity_loss_at_first_failing_node(self):
        nodes = TimeGrid(1.0, 10).nodes
        # R11 = 1 - 2t reaches 0 at node t = 0.5 of the 10-step grid
        with pytest.raises(RegularityError) as exc:
            hamiltonian(self.sampled_R_game([1.0, -1.0], [-1.0, -1.0]), 10)
        assert (exc.value.time, exc.value.side, exc.value.margin) == (nodes[5], 1, 0.0)
        # R22 = -1 + 2t reaches 0 at the same node: player 1 is reported
        with pytest.raises(RegularityError) as exc:
            hamiltonian(self.sampled_R_game([1.0, -1.0], [-1.0, 1.0]), 10)
        assert (exc.value.time, exc.value.side) == (nodes[5], 1)
        # R22 = -1 + 4t is positive first, at t = 0.3
        with pytest.raises(RegularityError) as exc:
            hamiltonian(self.sampled_R_game([1.0, -1.0], [-1.0, 3.0]), 10)
        assert (exc.value.time, exc.value.side) == (nodes[3], 2)
        assert exc.value.margin == pytest.approx(0.2)

    def test_ill_conditioned_player_block_accepted(self):
        # cond(R11) = 1e13, but R itself is well conditioned (cond ~ 2.6):
        # H solves with R alone and matches the solve at every node
        c = CoefficientPath.constant
        problem = random_game(3, dims=(2, 2, 1), noise=False)
        problem = dataclasses.replace(problem, cost=dataclasses.replace(
            problem.cost, R11=c(np.diag([1.0, 1e-13])), R12=c([[0.0], [1.0]]),
            R21=c([[0.0, 1.0]]), R22=c(-1.0)))
        H = hamiltonian(problem, 20)
        table = coefficients(problem, TimeGrid(1.0, 20).nodes)
        assert np.linalg.cond(table.R[0]) < 3.0
        for k, (A, B, Q, S, R) in enumerate(zip(
                table.A, table.B, table.Q, table.S, table.R)):
            X = np.linalg.solve(R, np.hstack((S, B.T)))
            Adj = A - B @ X[:, :2]
            want = np.block([[Adj, -B @ X[:, 2:]],
                             [-(Q - S.T @ X[:, :2]), -Adj.T]])
            assert H[k].tobytes() == want.tobytes(), k


class TestFundamentalMatrix:
    def test_starts_at_identity(self, det_psi):
        dim = det_psi.shape[-1]
        assert np.array_equal(det_psi[0], np.eye(dim))

    def test_matches_matrix_exponential(self, rand_det_problem, det_ham,
                                        det_psi):
        # constant-coefficient problem, so Psi(t) = expm(t H) exactly;
        # the exponential is an independent route to the same matrix
        H = det_ham[0]
        nodes = TimeGrid(rand_det_problem.horizon_T, 400).nodes
        for k in (100, 250, 400):
            assert np.abs(det_psi[k] - expm(nodes[k] * H)).max() < 1e-8

    def test_unit_determinant(self, det_psi):
        dets = np.linalg.det(det_psi)
        assert np.abs(dets - 1.0).max() < 1e-6

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_raises_at_first_non_finite_node(self):
        # finite up to t = 0.4, where a huge H lets Psi overflow in one step
        grid = TimeGrid(1.0, 10)
        H = np.zeros((11, 2, 2))
        H[4:] = 1e300 * np.eye(2)
        with pytest.raises(BlowUpError) as exc:
            fundamental_matrix(H, grid.horizon_T)
        assert exc.value.time == grid.nodes[4]
        assert exc.value.norm == np.inf


class TestRepresentation:
    def test_terminal_boundary_matrix(self, rand_det_problem, det_psi):
        rep = representation(rand_det_problem, det_psi)
        n = rand_det_problem.n
        assert np.abs(rep.Lambda_nodes[-1] + np.eye(n)).max() < 1e-10

    def test_matches_backward_solve(self, rand_det_problem, det_psi):
        rep = representation(rand_det_problem, det_psi)
        sol = solve_riccati(rand_det_problem, SolverConfig(n_steps=400), "game")
        err = max(np.linalg.norm(a - b)
                  for a, b in zip(rep.P_rep_nodes, sol.P_nodes))
        assert err <= 1e-6

    def test_symmetry_defects_small(self, rand_det_problem, det_psi):
        rep = representation(rand_det_problem, det_psi)
        assert rep.symmetry_defects.max() < 1e-8
        assert np.array_equal(rep.P_rep_nodes,
                              np.transpose(rep.P_rep_nodes, (0, 2, 1)))

    def test_singular_boundary_detected(self):
        # G = -2 with only player 1 acting: P = -1/(t - 1/2) escapes at
        # t = 1/2, where the boundary matrix degenerates
        p = scalar_game(B1=1.0, B2=0.0, G=-2.0, R11=1.0, R22=-1.0)
        psi = fundamental_matrix(hamiltonian(p, n_steps=400), p.horizon_T)
        with pytest.raises(RepresentationSingularError) as exc:
            representation(p, psi)
        assert exc.value.time == pytest.approx(0.5, abs=0.05)


    @pytest.mark.parametrize("case", ["another n", "2 nodes", "one matrix",
                                      "nan", "inf"])
    def test_psi_of_another_shape_or_not_finite_refused(
            self, rand_det_problem, det_psi, case):
        # rand_det_problem has n = 1; the Psi of an n = 3 game has 6 x 6
        # nodes, and one of 2 nodes has no grid of >= 2 steps
        other = random_game(1, dims=(3, 1, 2), noise=False)
        psi = {"another n": lambda: fundamental_matrix(
                   hamiltonian(other, 40), other.horizon_T),
               "2 nodes": lambda: det_psi[:2],
               "one matrix": lambda: det_psi[-1],
               "nan": lambda: np.where(np.arange(len(det_psi))[:, None, None]
                                       == 7, np.nan, det_psi),
               "inf": lambda: np.where(np.arange(len(det_psi))[:, None, None]
                                       == len(det_psi) - 1, np.inf, det_psi),
               }[case]()
        with pytest.raises(ContractViolation,
                           match=r"^Psi_nodes must be a finite \(k\+1, 2, 2\) "
                                 r"stack with k >= 2, got shape "
                                 rf"{re.escape(str(np.shape(psi)))}$"):
            representation(rand_det_problem, psi)


class TestEquivalenceReport:
    def test_all_routes_agree(self, rand_det_problem):
        report = equivalence_report(rand_det_problem, SolverConfig(n_steps=400))
        assert report.all_succeeded
        assert report.cross_error <= 1e-6

    def test_failures_are_data(self):
        p = scalar_game(B1=1.0, B2=0.0, G=-2.0, R11=1.0, R22=-1.0)
        report = equivalence_report(p, SolverConfig(n_steps=400))
        assert not report.all_succeeded
        assert report.riccati is None and report.riccati_failure
        assert report.rep is None and report.rep_failure
        assert report.cross_error is None

    def test_singular_R_is_a_representation_failure(self):
        # cond(R) = 1e13 at every node: the Riccati pass solves (the margins
        # hold and P stays 0), while the Hamiltonian refuses R
        p = scalar_game(R11=1e-5, R22=-1e8)
        report = equivalence_report(p, SolverConfig(n_steps=20))
        assert report.riccati is not None and report.rep is None
        assert report.rep_failure.startswith("SingularBlockError: block 'R'")

    def test_rejects_noisy_problem(self, ex5_2):
        with pytest.raises(NotDeterministicError):
            equivalence_report(ex5_2, SolverConfig(n_steps=100))
