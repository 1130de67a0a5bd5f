import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqgame import (
    ContractViolation, SolverConfig, adjoint_from_state, closed_loop,
    fbsde_residual, feedback_gain, game_value, mean_state_path,
    solve_riccati,
)


@pytest.fixture(scope="module")
def ex4_5_sol(ex4_5):
    return solve_riccati(ex4_5, SolverConfig(n_steps=400), "game")


@pytest.fixture(scope="module")
def rand_sol(rand_problem):
    return solve_riccati(rand_problem, SolverConfig(n_steps=400), "game")


@pytest.fixture(scope="module")
def rand_law(rand_problem, rand_sol):
    return feedback_gain(rand_problem, rand_sol)


class TestFeedbackGain:
    def test_ex4_5_gain_closed_form(self, ex4_5, ex4_5_sol):
        # Theta = -R^-1 B'P = (-P, (3/2) P) with P(0) = -1
        law = feedback_gain(ex4_5, ex4_5_sol)
        assert law.theta_nodes[0][:, 0] == pytest.approx([1.0, -1.5], abs=1e-6)

    def test_gain_consistent_with_stationarity(self, rand_problem, rand_sol,
                                               rand_law):
        # (R + D'PD) Theta + (B'P + D'PC + S) = 0 at every node
        from lqgame import assemble_blocks
        for t, P, Th in zip(rand_sol.grid.nodes[::50],
                            rand_sol.P_nodes[::50],
                            rand_law.theta_nodes[::50]):
            R_P, S_P, _ = assemble_blocks(rand_problem, P, t)
            assert np.abs(R_P @ Th + S_P).max() < 1e-10

    def test_rejects_single_player_solution(self, rand_problem, cfg400):
        p2 = solve_riccati(rand_problem, cfg400, "player2")
        with pytest.raises(ContractViolation):
            feedback_gain(rand_problem, p2)

    def test_theta_at_interpolates(self, rand_law):
        k = 17
        t = rand_law.grid.nodes[k]
        assert np.allclose(rand_law.theta_at(t), rand_law.theta_nodes[k],
                           rtol=0, atol=1e-13)
        mid = 0.5 * (rand_law.grid.nodes[k] + rand_law.grid.nodes[k + 1])
        expect = 0.5 * (rand_law.theta_nodes[k] + rand_law.theta_nodes[k + 1])
        assert np.allclose(rand_law.theta_at(mid), expect, rtol=0, atol=1e-13)

    def test_player_row_split(self, rand_problem, rand_law):
        assert rand_law.theta1_nodes().shape[1] == rand_problem.m1
        assert rand_law.theta2_nodes().shape[1] == rand_problem.m2


class TestGameValue:
    def test_ex4_5_value(self, ex4_5_sol):
        assert game_value(ex4_5_sol, [1.0]) == pytest.approx(-1.0, abs=1e-8)

    @given(s=st.floats(-3, 3))
    @settings(max_examples=25)
    def test_quadratic_homogeneity(self, rand_sol, s):
        x = np.arange(1.0, rand_sol.P_nodes.shape[-1] + 1.0)
        assert game_value(rand_sol, s * x) == pytest.approx(
            s * s * game_value(rand_sol, x), rel=1e-12, abs=1e-12)


class TestClosedLoop:
    def test_shapes(self, rand_problem, rand_law):
        system = closed_loop(rand_problem, rand_law)
        n = rand_problem.n
        assert system.drift_nodes.shape == (401, n, n)
        assert system.diffusion_nodes.shape == (401, n, n)

    def test_mean_path_linear_in_x(self, rand_problem, rand_law):
        system = closed_loop(rand_problem, rand_law)
        x = np.ones(rand_problem.n)
        a = mean_state_path(system, x)
        b = mean_state_path(system, 2.0 * x)
        assert np.allclose(b, 2.0 * a, rtol=1e-12, atol=1e-12)

    def test_mean_path_starts_at_x(self, rand_problem, rand_law):
        system = closed_loop(rand_problem, rand_law)
        x = np.arange(1.0, rand_problem.n + 1.0)
        assert np.array_equal(mean_state_path(system, x)[0], x)


class TestFbsdeResidual:
    def test_adjoint_is_P_times_state(self, rand_problem, rand_sol, rand_law):
        system = closed_loop(rand_problem, rand_law)
        X = mean_state_path(system, np.ones(rand_problem.n))
        triple = adjoint_from_state(rand_problem, rand_sol, rand_law, X)
        for P, Xk, Yk in zip(rand_sol.P_nodes[::97], X[::97],
                             triple.Y_nodes[::97]):
            assert np.allclose(Yk, P @ Xk, rtol=0, atol=1e-14)

    def test_residual_vanishes_on_saddle_law(self, rand_problem, rand_sol,
                                             rand_law):
        system = closed_loop(rand_problem, rand_law)
        X = mean_state_path(system, np.ones(rand_problem.n))
        res = fbsde_residual(rand_problem, rand_sol, rand_law, X)
        scale = 1.0 + np.linalg.norm(X, axis=1)
        assert (res / scale).max() <= 1e-8

    def test_residual_detects_wrong_gain(self, rand_problem, rand_sol,
                                         rand_law):
        from lqgame import FeedbackLaw
        theta = rand_law.theta_nodes.copy()
        theta[:, 0, 0] += 0.1
        wrong = FeedbackLaw(grid=rand_law.grid, theta_nodes=theta,
                            m1=rand_law.m1, m2=rand_law.m2)
        system = closed_loop(rand_problem, rand_law)
        X = mean_state_path(system, np.ones(rand_problem.n))
        res = fbsde_residual(rand_problem, rand_sol, wrong, X)
        nonzero = np.linalg.norm(X, axis=1) > 1e-3
        assert res[nonzero].min() > 1e-3

    def test_matches_per_node_loop(self, rand_problem, rand_sol, rand_law):
        # reference: the node-by-node formulas, bit for bit
        from lqgame import coefficients
        system = closed_loop(rand_problem, rand_law)
        X = mean_state_path(system, np.ones(rand_problem.n))
        triple = adjoint_from_state(rand_problem, rand_sol, rand_law, X)
        res = fbsde_residual(rand_problem, rand_sol, rand_law, X)
        table = coefficients(rand_problem, rand_sol.grid.nodes)
        for j, (P, Th, x) in enumerate(zip(rand_sol.P_nodes,
                                           rand_law.theta_nodes, X)):
            A, B, C, D, Q, S, R = table.row(j)
            u = Th @ x
            Y, Z = P @ x, P @ (C @ x + D @ u)
            assert system.drift_nodes[j].tobytes() == (A + B @ Th).tobytes()
            assert system.diffusion_nodes[j].tobytes() == (C + D @ Th).tobytes()
            assert triple.Y_nodes[j].tobytes() == Y.tobytes()
            assert triple.Z_nodes[j].tobytes() == Z.tobytes()
            assert res[j] == np.linalg.norm(B.T @ Y + D.T @ Z + S @ x + R @ u)

    def test_grid_mismatch_rejected(self, rand_problem, rand_law):
        sol_coarse = solve_riccati(rand_problem, SolverConfig(n_steps=100),
                                   "game")
        X = np.ones((101, rand_problem.n))
        with pytest.raises(ContractViolation):
            fbsde_residual(rand_problem, sol_coarse, rand_law, X)
