import numpy as np
import pytest

from lqgame import (
    BlowUpError, ContractViolation, RegularityError, SolverConfig, certify_A3,
    comparison_check, eval_coeff, local_radius, regularized_problem,
    riccati_rhs, solve_lambda_family, solve_riccati,
)
from conftest import scalar_game


class TestRhs:
    def test_ex4_5_rhs_at_terminal(self, ex4_5):
        # closed form P' = -P^2/2, so at P = G = -2 the slope is -2
        F = riccati_rhs(ex4_5, 1.0, np.array([[-2.0]]), "game")
        assert F[0, 0] == pytest.approx(-2.0, abs=1e-12)

    def test_player1_rhs_is_P_squared(self, ex4_5):
        # frozen-opponent equation for player 1: P' = P^2
        F = riccati_rhs(ex4_5, 0.8, np.array([[-2.0]]), "player1")
        assert F[0, 0] == pytest.approx(4.0, abs=1e-12)

    def test_rhs_is_symmetric(self, rand_problem):
        rng = np.random.default_rng(0)
        n = rand_problem.n
        for _ in range(10):
            P = np.eye(n) * 0.1 + 0.01 * rng.normal(size=(n, n))
            P = 0.5 * (P + P.T)
            F = riccati_rhs(rand_problem, 0.3, P, "game")
            assert np.array_equal(F, F.T)

    def test_margin_violation_raises(self):
        p = scalar_game(D2=1.0, R22=-1.0, G=1.0)
        with pytest.raises(RegularityError):
            riccati_rhs(p, 1.0, np.array([[1.0]]), "game")

    def test_unknown_kind(self, ex4_5):
        with pytest.raises(ContractViolation):
            riccati_rhs(ex4_5, 0.0, np.zeros((1, 1)), "players")


class TestSolve:
    def test_ex4_5_closed_form(self, ex4_5):
        sol = solve_riccati(ex4_5, SolverConfig(n_steps=1000), "game")
        exact = 2.0 / (sol.grid.nodes - 2.0)
        assert np.abs(sol.P_nodes[:, 0, 0] - exact).max() <= 1e-8
        assert sol.P0()[0, 0] == pytest.approx(-1.0, abs=1e-8)

    def test_terminal_condition_exact(self, rand_problem, cfg400):
        sol = solve_riccati(rand_problem, cfg400, "game")
        assert np.array_equal(sol.P_nodes[-1], rand_problem.cost.G)

    def test_solution_symmetric(self, rand_problem, cfg400):
        sol = solve_riccati(rand_problem, cfg400, "game")
        defect = np.abs(sol.P_nodes - np.transpose(sol.P_nodes, (0, 2, 1)))
        assert defect.max() <= 1e-10

    def test_fourth_order_convergence(self, ex4_5):
        errs = []
        for n in (50, 100, 200):
            sol = solve_riccati(ex4_5, SolverConfig(n_steps=n), "game")
            exact = 2.0 / (sol.grid.nodes - 2.0)
            errs.append(np.abs(sol.P_nodes[:, 0, 0] - exact).max())
        # order >= 3 means halving the step cuts the error by >= 8
        assert errs[0] / errs[1] >= 8.0
        assert errs[1] / errs[2] >= 8.0

    def test_finite_difference_residual(self, rand_problem, cfg400):
        sol = solve_riccati(rand_problem, cfg400, "game")
        dt = sol.grid.dt
        scale = 1.0 + np.abs(sol.P_nodes).max()
        for k in range(1, sol.grid.n_steps, 37):
            dP = (sol.P_nodes[k + 1] - sol.P_nodes[k - 1]) / (2 * dt)
            F = riccati_rhs(rand_problem, sol.grid.nodes[k], sol.P_nodes[k],
                            "game")
            assert np.abs(dP - F).max() <= 10.0 * dt ** 2 * scale

    def test_interpolation_exact_at_nodes(self, rand_problem, cfg400):
        sol = solve_riccati(rand_problem, cfg400, "game")
        k = 123
        assert np.allclose(sol.P_at(sol.grid.nodes[k]), sol.P_nodes[k],
                           rtol=0, atol=1e-14)

    def test_ex5_2_regularity_failure_at_terminal(self, ex5_2, cfg400):
        # margin2 = R22 + D2' G D2 = 0 at t = T, within eps of the threshold
        with pytest.raises(RegularityError) as exc:
            solve_riccati(ex5_2, cfg400, "game")
        assert exc.value.side == 2
        assert exc.value.time == pytest.approx(1.0, abs=cfg400.n_steps ** -1)
        assert exc.value.margin >= -cfg400.eps_reg

    def test_ex4_5_player1_blows_up_near_half(self, ex4_5, cfg400):
        # companion solution -1/(t - 1/2) escapes at t = 1/2
        with pytest.raises(BlowUpError) as exc:
            solve_riccati(ex4_5, cfg400, "player1")
        assert exc.value.time == pytest.approx(0.5, abs=0.05)
        partial = exc.value.partial
        assert partial.times[-1] == 1.0
        assert partial.P_nodes[-1][0, 0] == -2.0
        assert partial.times[0] > 0.45

    def test_margin_exactly_at_eps_counts_as_violation(self):
        p = scalar_game(B1=1.0, R11=0.5, R22=-1.0, G=0.0)
        with pytest.raises(RegularityError):
            solve_riccati(p, SolverConfig(eps_reg=0.5, n_steps=10), "game")

    def test_blowup_cap_is_configurable(self, ex4_5):
        with pytest.raises(BlowUpError) as exc:
            solve_riccati(ex4_5, SolverConfig(n_steps=400, blowup_cap=100.0),
                          "player1")
        assert exc.value.norm > 100.0


class TestCertificate:
    def test_ex4_5_not_certified_but_solvable(self, ex4_5, cfg400):
        report = certify_A3(ex4_5, cfg400)
        assert report.status == "NOT_CERTIFIED"
        assert report.failing_side == 1
        # ... while the game equation itself is fine
        sol = solve_riccati(ex4_5, cfg400, "game")
        assert sol.P0()[0, 0] == pytest.approx(-1.0, abs=1e-6)

    def test_random_instance_certified(self, rand_problem, cfg400):
        report = certify_A3(rand_problem, cfg400)
        assert report.certified
        assert report.min_margin1 > 0
        assert report.max_margin2 < 0

    def test_comparison_sandwich(self, rand_problem, cfg400):
        report = certify_A3(rand_problem, cfg400)
        game = solve_riccati(rand_problem, cfg400, "game")
        cmp = comparison_check(game, report.p1, report.p2)
        assert cmp.passed
        lo, hi = cmp.worst_margins()
        assert lo >= -1e-8 and hi >= -1e-8


class TestRegularization:
    def test_shift_moves_R_blocks(self, ex5_2):
        shifted = regularized_problem(ex5_2, 0.25)
        t = 0.4
        assert eval_coeff(shifted.cost.R11, t)[0, 0] == pytest.approx(
            0.4 ** 2 + 0.25)
        assert eval_coeff(shifted.cost.R22, t)[0, 0] == pytest.approx(-1.25)

    def test_family_records_failures(self, ex5_2, cfg400):
        fam = solve_lambda_family(ex5_2, [0.5, 1e-9], cfg400)
        assert fam.solutions[0] is not None
        assert fam.solutions[1] is None
        assert "Regularity" in fam.failures[1]
        assert fam.P0_values[1] is None

    def test_family_rejects_unordered_levels(self, ex5_2, cfg400):
        with pytest.raises(ContractViolation):
            solve_lambda_family(ex5_2, [0.1, 0.5], cfg400)
        with pytest.raises(ContractViolation):
            solve_lambda_family(ex5_2, [0.5, -0.1], cfg400)

    def test_family_levels_match_serial(self, ex5_2, cfg400):
        lambdas = [0.5, 0.25, 1e-9]
        fam = solve_lambda_family(ex5_2, lambdas, cfg400)
        assert fam.solutions[-1] is None
        for lam, sol, failure, P0 in zip(lambdas, fam.solutions, fam.failures,
                                         fam.P0_values):
            try:
                ref = solve_riccati(regularized_problem(ex5_2, lam), cfg400)
            except (RegularityError, BlowUpError) as err:
                assert sol is None and P0 is None
                assert failure == f"{type(err).__name__}: {err}"
                continue
            assert failure is None
            for a, b in ((sol.P_nodes, ref.P_nodes), (P0, ref.P0()),
                         (sol.margin1_nodes, ref.margin1_nodes),
                         (sol.margin2_nodes, ref.margin2_nodes)):
                assert a.tobytes() == b.tobytes()


def test_local_radius_formula():
    p = scalar_game(D1=2.0, D2=1.0)
    # |D|^2 = 4 + 1
    assert local_radius(p, 3.0) == pytest.approx(3.0 / (4.0 * 6.0))
