import numpy as np
import pytest

from lqgame import (
    ContractViolation, ControlLaw, CostEstimate, OracleRegularityError,
    SaddleReport, SimulationDiverged, SolverConfig, TimeGrid,
    brownian_increments, discrete_oracle, estimate_cost, falsify_lower_value,
    feedback_gain, game_value, perturbation_directions, simulate,
    solve_riccati, verify_saddle,
)
from lqgame.core import coefficients
from lqgame.evaluation import _estimate
from conftest import scalar_game


@pytest.fixture(scope="module")
def grid():
    return TimeGrid(1.0, 200)


class TestBrownianIncrements:
    def test_seed_determinism(self, grid):
        a = brownian_increments(42, 8, grid)
        b = brownian_increments(42, 8, grid)
        assert np.array_equal(a, b)
        c = brownian_increments(43, 8, grid)
        assert not np.array_equal(a, c)

    def test_prefix_stability(self, grid):
        # the first paths do not change when more are requested
        a = brownian_increments(42, 4, grid)
        b = brownian_increments(42, 16, grid)
        assert np.array_equal(a, b[:4])

    def test_ito_isometry(self, grid):
        dW = brownian_increments(0, 4000, grid)
        W_T = dW.sum(axis=1)
        # E[W_T^2] = T = 1 within Monte-Carlo noise
        assert np.mean(W_T ** 2) == pytest.approx(1.0, abs=0.1)
        assert np.mean(W_T) == pytest.approx(0.0, abs=0.05)


class TestSimulate:
    def test_zero_dynamics_state_constant(self, grid):
        p = scalar_game()
        zero = ControlLaw.constant([0.0])
        ens = simulate(p, zero, zero, [3.0], grid, 5, 0)
        assert np.all(ens.X_paths == 3.0)

    def test_ex3_4_cost_closed_form(self, ex3_4, grid):
        # J(x; lam, 0) = -(x^2 + 2 lam x); exact since u2 = 0 kills the noise
        for lam in (0.0, 10.0):
            ens = simulate(ex3_4, ControlLaw.constant([lam]),
                           ControlLaw.constant([0.0]), [1.0], grid, 1, 0)
            est = estimate_cost(ex3_4, ens)
            assert est.mean == pytest.approx(-(1.0 + 2.0 * lam), abs=1e-9)

    def test_control_dim_checked(self, ex3_4, grid):
        with pytest.raises(ContractViolation):
            simulate(ex3_4, ControlLaw.constant([0.0, 0.0]),
                     ControlLaw.constant([0.0]), [1.0], grid, 1, 0)

    def test_divergence_reported(self, grid):
        p = scalar_game(Q=0.0)
        # huge constant control through an explosive drift coefficient
        exploding = scalar_game(B1=1e300)
        with pytest.raises(SimulationDiverged):
            simulate(exploding, ControlLaw.constant([1e300]),
                     ControlLaw.constant([0.0]), [1.0], grid, 2, 0)

    def test_feedback_law_matches_gain_rows(self, rand_problem, cfg400, grid):
        sol = solve_riccati(rand_problem, cfg400, "game")
        law = feedback_gain(rand_problem, sol)
        u1 = ControlLaw.from_feedback(law, 1, grid)
        assert u1.dim() == rand_problem.m1
        X = np.ones((3, rand_problem.n))
        out = u1.as_callable(grid)(0, X)
        assert np.allclose(out, X @ law.theta_nodes[0][:rand_problem.m1].T)


def reference_costs(problem, grid, X, U1, U2):
    """Per-path payoff priced after the simulation from the stored
    histories: one quadratic form z'Mz per node, chunked over time, then
    the terminal term plus trapezoid quadrature."""
    n_nodes = grid.n_steps + 1
    table = coefficients(problem, grid.nodes)
    M = np.block([[table.Q, table.S.swapaxes(1, 2)], [table.S, table.R]])
    Z = np.concatenate([X, U1, U2], axis=2).swapaxes(0, 1)
    ell = np.empty((n_nodes, X.shape[0]))
    chunk = 256
    for s in range(0, n_nodes, chunk):
        e = min(s + chunk, n_nodes)
        Zc = np.ascontiguousarray(Z[s:e])
        ell[s:e] = (np.matmul(Zc, M[s:e]) * Zc).sum(axis=2)
    running = np.trapezoid(ell, dx=grid.dt, axis=0)
    XT = X[:, -1, :]
    terminal = np.einsum("pi,ij,pj->p", XT, problem.cost.G, XT)
    return terminal + running


class TestCostEstimate:
    @pytest.mark.parametrize("n_paths", [1, 64, 500])
    def test_ex3_2_constant_controls_match_reference(self, ex3_2, grid,
                                                     n_paths):
        # sampled, time-varying R12/R22
        for a, b in ((0.0, 1.0), (2.0, 0.0), (1.0, 3.0)):
            ens = simulate(ex3_2, ControlLaw.constant([a]),
                           ControlLaw.constant([b]), [1.0], grid, n_paths, 4)
            self._assert_matches_reference(ex3_2, grid, ens)

    @pytest.mark.parametrize("n_paths", [1, 64, 500])
    def test_feedback_laws_match_reference(self, rand_problem, cfg400, grid,
                                           n_paths):
        sol = solve_riccati(rand_problem, cfg400, "game")
        law = feedback_gain(rand_problem, sol)
        ens = simulate(rand_problem, ControlLaw.from_feedback(law, 1, grid),
                       ControlLaw.from_feedback(law, 2, grid),
                       np.ones(rand_problem.n), grid, n_paths, 8)
        self._assert_matches_reference(rand_problem, grid, ens)

    @staticmethod
    def _assert_matches_reference(problem, grid, ens):
        ref = reference_costs(problem, grid, ens.X_paths, ens.u1_paths,
                              ens.u2_paths)
        assert ens.costs.tobytes() == ref.tobytes()
        assert estimate_cost(problem, ens) == _estimate(ref)

    def test_estimate_moments(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        est = _estimate(vals)
        assert est.mean == 2.5
        assert est.std_error == pytest.approx(vals.std(ddof=1) / 2.0)
        assert est.n_paths == 4


class TestSaddleReport:
    def _est(self, mean, se=0.01):
        return CostEstimate(mean=mean, std_error=se, n_paths=100)

    def test_pass_when_within_bands(self):
        r = SaddleReport(value_analytic=1.0, value_mc=self._est(1.02),
                         gaps_player1=[self._est(0.5)],
                         gaps_player2=[self._est(-0.5)])
        assert r.verdict == "PASS"

    def test_fail_on_value_mismatch(self):
        r = SaddleReport(value_analytic=1.0, value_mc=self._est(1.5),
                         gaps_player1=[], gaps_player2=[])
        assert r.verdict == "FAIL"

    def test_fail_on_negative_player1_gap(self):
        r = SaddleReport(value_analytic=1.0, value_mc=self._est(1.0),
                         gaps_player1=[self._est(-0.5)], gaps_player2=[])
        assert r.verdict == "FAIL"

    def test_fail_on_positive_player2_gap(self):
        r = SaddleReport(value_analytic=1.0, value_mc=self._est(1.0),
                         gaps_player1=[], gaps_player2=[self._est(0.5)])
        assert r.verdict == "FAIL"


class TestVerifySaddle:
    def test_random_instance_passes(self, rand_problem, cfg400):
        sol = solve_riccati(rand_problem, cfg400, "game")
        law = feedback_gain(rand_problem, sol)
        report = verify_saddle(rand_problem, sol, law, np.ones(rand_problem.n),
                               n_perturbations=3, n_paths=2000, seed=5)
        assert report.verdict == "PASS"
        assert all(g.mean >= -3 * g.std_error for g in report.gaps_player1)
        assert all(g.mean <= 3 * g.std_error for g in report.gaps_player2)

    def test_perturbation_directions_unit_norm(self, grid):
        for v in perturbation_directions(0, 4, grid, 2):
            norm_sq = np.trapezoid(np.sum(v * v, axis=1), dx=grid.dt)
            assert norm_sq == pytest.approx(1.0, abs=1e-12)

    def test_gap_scales_quadratically(self, ex3_4):
        # deviating player 2 by c*v changes the cost by exactly -2 c^2 |v|^2
        grid = TimeGrid(1.0, 200)
        base = simulate(ex3_4, ControlLaw.constant([0.0]),
                        ControlLaw.constant([0.0]), [1.0], grid, 400, 9)
        c0 = estimate_cost(ex3_4, base).mean

        def gap(c):
            ens = simulate(ex3_4, ControlLaw.constant([0.0]),
                           ControlLaw.constant([c]), [1.0], grid, 400, 9)
            return estimate_cost(ex3_4, ens).mean - c0

        g1, g2 = gap(0.5), gap(1.0)
        assert g2 / g1 == pytest.approx(4.0, rel=0.05)


class TestDiscreteOracle:
    def test_exact_on_ex4_5(self, ex4_5):
        # continuous value is P(0) x^2 = -1 at x = 1; for this instance the
        # trapezoid/Euler discretization happens to be exact to rounding
        for N in (16, 32, 64):
            assert discrete_oracle(ex4_5, [1.0], N)[0] == pytest.approx(
                -1.0, abs=1e-12)

    def test_first_order_rate(self, rand_problem, cfg400):
        sol = solve_riccati(rand_problem, cfg400, "game")
        x = np.ones(rand_problem.n)
        val = game_value(sol, x)
        errs = [abs(discrete_oracle(rand_problem, x, N)[0] - val)
                for N in (32, 64, 128)]
        assert errs[0] > errs[1] > errs[2]
        # roughly halves with the step
        assert errs[0] / errs[2] > 2.5

    def test_gains_have_step_shapes(self, rand_problem):
        _, gains = discrete_oracle(rand_problem, np.ones(rand_problem.n), 8)
        assert len(gains) == 8
        m = rand_problem.m1 + rand_problem.m2
        assert gains[0].shape == (m, rand_problem.n)

    def test_regularity_loss_detected(self, ex5_2):
        # the player-2 block degenerates at the final step
        with pytest.raises(OracleRegularityError) as exc:
            discrete_oracle(ex5_2, [1.0], 32)
        assert exc.value.step == 31


class TestFalsifier:
    def test_ex3_4_table(self, ex3_4):
        table = falsify_lower_value(ex3_4, [1.0], [0.0, 10.0, 100.0],
                                    n_paths=50, seed=0)
        for lam, est in table:
            assert est.mean == pytest.approx(-(1.0 + 2.0 * lam), abs=1e-8)
        means = [est.mean for _, est in table]
        assert means[0] > means[1] > means[2]
