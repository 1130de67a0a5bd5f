import dataclasses
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqgame import (
    CoefficientPath, ContractViolation, ControlLaw, CostWeights, FeedbackLaw,
    GameProblem, LqgError, SingularBlockError, SolverConfig, StateDynamics,
    TimeGrid, certify_A3, closed_loop, coefficients, comparison_check,
    estimate_cost, fbsde_residual, feedback_gain, game_value, hamiltonian,
    mean_state_path, random_certified_problem, simulate, solve_riccati,
    verify_saddle,
)
from lqgame.core import _solve
from lqgame.riccati import _solve_stack
from conftest import control_blocks, random_game, table_row


@pytest.fixture(scope="module")
def ex4_5_sol(ex4_5):
    return solve_riccati(ex4_5, SolverConfig(n_steps=400), "game")


@pytest.fixture(scope="module")
def rand_sol(rand_problem):
    return solve_riccati(rand_problem, SolverConfig(n_steps=400), "game")


@pytest.fixture(scope="module")
def rand_law(rand_problem, rand_sol):
    return feedback_gain(rand_problem, rand_sol)


# the start states that TestDiscreteOracle.test_bad_start_state_refused
# refuses for rand_problem, whose n is 4
BAD_START_STATES = [[1.0], np.ones(5), [[1.0] * 4], [1.0, np.nan, 1.0, 1.0],
                    [np.inf, 0.0, 0.0, 0.0]]
BAD_START_MESSAGE = "start state x must be a finite vector of length 4"


class TestFeedbackGain:
    def test_ex4_5_gain_closed_form(self, ex4_5, ex4_5_sol):
        # Theta = -R^-1 B'P = (-P, (3/2) P) with P(0) = -1
        law = feedback_gain(ex4_5, ex4_5_sol)
        assert law.theta_nodes[0][:, 0] == pytest.approx([1.0, -1.5], abs=1e-6)

    def test_gain_consistent_with_stationarity(self, rand_problem, rand_sol,
                                               rand_law):
        # (R + D'PD) Theta + (B'P + D'PC + S) = 0 at every node
        table = coefficients(rand_problem, rand_sol.grid.nodes)
        for j in range(0, rand_sol.grid.n_steps + 1, 50):
            R_P, S_P, _ = control_blocks(table_row(table, j),
                                         rand_sol.P_nodes[j], rand_problem.m1)
            assert np.abs(R_P @ rand_law.theta_nodes[j] + S_P).max() < 1e-10

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12),
           m1=st.integers(1, 3), m2=st.integers(1, 3),
           n_steps=st.integers(2, 40))
    @settings(max_examples=40, deadline=None)
    def test_gain_is_the_formula_on_the_node_table(self, seed, n, m1, m2,
                                                   n_steps):
        # the gain solved from the pass's stored rows equals the one from
        # rows assembled afresh on the whole node table, bit for bit; the
        # draws are constant or sampled, and from 32 steps on, 65 stage
        # rows, a sampled game's pass forms its operands in two chunks
        config = SolverConfig(n_steps=n_steps)
        problem = next(p for p in (random_game(seed + i, dims=(n, m1, m2))
                                   for i in range(100))
                       if certify_A3(p, config).certified)
        sol = solve_riccati(problem, config)
        R_P, S_P, _ = control_blocks(
            coefficients(problem, sol.grid.nodes), sol.P_nodes, m1)
        law = feedback_gain(problem, sol)
        assert law.theta_nodes.tobytes() == (-_solve(R_P, S_P)).tobytes()

    @pytest.mark.parametrize("seed", [9, 11])
    def test_gain_is_the_solve_on_stacked_rows(self, seed):
        # in a pass that mixes kinds, each game member's gain is the solve
        # on its own stored rows, bit for bit at every node; both draws are
        # certified, 9 sampled and 11 constant
        problem = random_game(seed, dims=(3, 2, 2))
        n = problem.n
        kinds = ("player1", "game", "player2", "game")
        outcomes = _solve_stack([problem] * 4, kinds, SolverConfig(n_steps=40))
        for sol in (o for o, kind in zip(outcomes, kinds) if kind == "game"):
            rows = sol.control_nodes
            theta = -np.linalg.solve(rows[..., n:], rows[..., :n])
            law = feedback_gain(problem, sol)
            assert law.theta_nodes.tobytes() == theta.tobytes()

    def test_ill_conditioned_R_refused(self):
        # P stays 0, so R + D'PD = R = diag(R11, -1e8) with R11 falling from
        # 1 to 2e-5 at t = 0.5 and 1e-5 at T: the margins hold, and node 5
        # of 10 is the first with condition above 1e12.  Both the gain and
        # the noise-free Hamiltonian refuse R there
        c = CoefficientPath.constant
        dyn = StateDynamics(A=c(0.0), B1=c(1.0), B2=c(1.0), C=c(0.0),
                            D1=c(0.0), D2=c(0.0))
        R11 = CoefficientPath.sampled(np.reshape([1.0, 2e-5, 1e-5],
                                                 (3, 1, 1)), 1.0)
        cost = CostWeights(G=np.zeros((1, 1)), Q=c(0.0), S1=c(0.0),
                           S2=c(0.0), R11=R11, R12=c(0.0), R21=c(0.0),
                           R22=c(-1e8))
        problem = GameProblem(dynamics=dyn, cost=cost, horizon_T=1.0)
        sol = solve_riccati(problem, SolverConfig(n_steps=10))
        assert not sol.P_nodes.any()
        cond = float(np.linalg.cond(np.diag([2e-5, -1e8])))
        for call in (lambda: feedback_gain(problem, sol),
                     lambda: hamiltonian(problem, 10)):
            with pytest.raises(SingularBlockError) as exc:
                call()
            assert (exc.value.block, exc.value.cond) == ("R", cond)

    def test_rejects_single_player_solution(self, rand_problem, cfg400):
        p2 = solve_riccati(rand_problem, cfg400, "player2")
        with pytest.raises(ContractViolation):
            feedback_gain(rand_problem, p2)


# what each draw of the fit table below fixes: (n, m1, m2, T, n_steps);
# each is certified at 40 steps but "T1.2", whose player-2 equation loses
# its margin at t = 0.045 and so has no p2
FIT = ("n", "m1", "m2", "T", "n_steps")
DRAWS = {
    "312": ((3, 1, 2, 1.0, 40), lambda: random_game(34, dims=(3, 1, 2))),
    "321": ((3, 2, 1, 1.0, 40), lambda: random_game(34, dims=(3, 2, 1))),
    "412": ((4, 1, 2, 1.0, 40), lambda: random_game(6, dims=(4, 1, 2))),
    "T1.0": ((4, 1, 1, 1.0, 40), lambda: random_certified_problem(3)),
    "T1.2": ((4, 1, 1, 1.2, 40), lambda: dataclasses.replace(
        random_certified_problem(3), horizon_T=1.2)),
}
# (the problem's draw, the draw of what is paired with it): a control split
# swap, an n mismatch and a horizon mismatch, each both ways
PAIRS = [("312", "321"), ("321", "312"), ("412", "312"), ("312", "412"),
         ("T1.0", "T1.2"), ("T1.2", "T1.0")]
ALL, GRID = (0, 1, 2, 3), (3,)
# each entry point, called with the problem's draw ``a`` and the other's
# ``b``, and the (argument, compared fields) it checks in order: the first
# whose fields differ between the draws is refused
ENTRIES = {
    "feedback_gain": (lambda a, b: feedback_gain(a.problem, b.sol),
                      [("sol", ALL)]),
    "closed_loop": (lambda a, b: closed_loop(a.problem, b.law),
                    [("law", ALL)]),
    "fbsde_residual-sol": (
        lambda a, b: fbsde_residual(a.problem, b.sol, a.law, a.X),
        [("sol", ALL)]),
    "fbsde_residual-law": (
        lambda a, b: fbsde_residual(a.problem, a.sol, b.law, a.X),
        [("law", ALL + (4,))]),
    "comparison_check-p1": (
        lambda a, b: comparison_check(a.sol, b.p1, a.p2),
        [("p1", ALL + (4,))]),
    "comparison_check-p2": (
        lambda a, b: comparison_check(a.sol, a.p1, b.p2),
        [("p2", ALL + (4,))]),
    "verify_saddle-sol": (
        lambda a, b: verify_saddle(a.problem, b.sol, a.law, np.ones(a.n), 1,
                                   4, 0), [("sol", ALL)]),
    "verify_saddle-law": (
        lambda a, b: verify_saddle(a.problem, a.sol, b.law, np.ones(a.n), 1,
                                   4, 0), [("law", ALL)]),
    "simulate": (
        lambda a, b: simulate(a.problem, *b.controls, np.ones(a.n), b.grid,
                              4, 0),
        [("u1", (0, 1)), ("u2", (0, 2)), ("grid", GRID)]),
    "estimate_cost": (
        lambda a, b: estimate_cost(a.problem, b.ensemble),
        [("ensemble", (1, 2, 3))]),
    "from_feedback": (
        lambda a, b: ControlLaw.from_feedback(a.law, 1, b.grid),
        [("grid", GRID)]),
}


def refused(entry, a, b):
    """The (argument, fields) that ``entry`` refuses for draws a and b, or
    None if they fit."""
    return next(((name, fields) for name, fields in ENTRIES[entry][1]
                 if any(DRAWS[a][0][i] != DRAWS[b][0][i] for i in fields)),
                None)


# every pair an entry point refuses, except the comparison_check calls
# that would need the p2 that "T1.2" lacks
FIT_CASES = [(entry, a, b) for entry in ENTRIES for a, b in PAIRS
             if refused(entry, a, b)
             and not (entry == "comparison_check-p1" and a == "T1.2")
             and not (entry == "comparison_check-p2" and b == "T1.2")]


class TestDimensions:
    """A solution, law, ensemble, grid or state path that does not fit the
    problem is refused by name, with both values, not left to a NumPy
    shape error or a wrong number: random_certified_problem(3) has (n, m1,
    m2) = (4, 1, 1), rand_problem (4, 2, 2)."""

    @pytest.fixture(scope="class")
    def other(self):
        return random_certified_problem(seed=3)

    @pytest.fixture(scope="class")
    def draws(self):
        config, out = SolverConfig(n_steps=40), {}
        for key, (_, make) in DRAWS.items():
            p = make()
            sol = solve_riccati(p, config)
            kinds = {}
            for kind in ("player1", "player2"):
                try:
                    kinds[kind] = solve_riccati(p, config, kind)
                except LqgError:
                    kinds[kind] = None
            law = feedback_gain(p, sol)
            grid = TimeGrid(p.horizon_T, 40)
            controls = [ControlLaw.from_feedback(law, i, grid) for i in (1, 2)]
            out[key] = SimpleNamespace(
                problem=p, n=p.n, sol=sol, law=law, p1=kinds["player1"],
                p2=kinds["player2"], grid=grid, controls=controls,
                X=mean_state_path(closed_loop(p, law), np.ones(p.n)),
                ensemble=simulate(p, *controls, np.ones(p.n), grid, 4, 0))
        return out

    def test_draws(self, draws):
        # each draw has the fit the table gives it
        for key, (fit, _) in DRAWS.items():
            assert draws[key].sol.fit == draws[key].law.fit == fit
            assert draws[key].problem.fit == fit[:4]
            assert (draws[key].p2 is None) == (key == "T1.2")

    @pytest.mark.parametrize("entry,a,b", FIT_CASES)
    def test_refused_where_it_enters(self, draws, entry, a, b):
        name, fields = refused(entry, a, b)
        got, want = (f"({', '.join(str(v[i]) for i in fields)})"
                     for v in (DRAWS[b][0], DRAWS[a][0]))
        what = f"({', '.join(FIT[i] for i in fields)})"
        with pytest.raises(ContractViolation) as err:
            ENTRIES[entry][0](draws[a], draws[b])
        assert str(err.value) == f"{name} has {what} = {got}, expected {want}"

    def test_feedback_gain(self, other, rand_sol):
        with pytest.raises(ContractViolation,
                           match=r"^sol has \(n, m1, m2, T\) = \(4, 2, 2, "
                                 r"1.0\), expected \(4, 1, 1, 1.0\)$"):
            feedback_gain(other, rand_sol)

    def test_closed_loop(self, other, rand_law):
        with pytest.raises(ContractViolation,
                           match=r"^law has \(n, m1, m2, T\) = \(4, 2, 2, "
                                 r"1.0\), expected \(4, 1, 1, 1.0\)$"):
            closed_loop(other, rand_law)

    def test_fbsde_residual(self, other, rand_problem, rand_sol, rand_law,
                            cfg400):
        X = mean_state_path(closed_loop(rand_problem, rand_law),
                            np.ones(rand_problem.n))
        other_sol = solve_riccati(other, cfg400)
        other_law = feedback_gain(other, other_sol)
        big, small = "4, 2, 2, 1.0", "4, 1, 1, 1.0"
        fit = r"\(n, m1, m2, T\)"
        for args, name in (
                ((other, rand_sol, other_law, X),
                 rf"^sol has {fit} = \({big}\), expected \({small}\)$"),
                ((rand_problem, other_sol, rand_law, X),
                 rf"^sol has {fit} = \({small}\), expected \({big}\)$"),
                ((rand_problem, rand_sol, rand_law, X[:-1]), "state path"),
                ((rand_problem, rand_sol, other_law, X),
                 rf"^law has \(n, m1, m2, T, n_steps\) = \({small}, 400\), "
                 rf"expected \({big}, 400\)$"),
                ((rand_problem, rand_sol, rand_law, X[:, :3]), "state path"),
                ((rand_problem, rand_sol, rand_law, X[:, :, None, None]),
                 "state path")):
            with pytest.raises(ContractViolation, match=name):
                fbsde_residual(*args)

    def test_feedback_gain_other_control_split(self, cfg400):
        # a certified (3, 1, 2) and a (3, 2, 1) game: their control rows have
        # one shape, and each solution is refused for the other's problem
        one_two = random_game(34, dims=(3, 1, 2))
        two_one = random_game(34, dims=(3, 2, 1))
        assert certify_A3(one_two, cfg400).certified
        for problem, sol, got, want in (
                (two_one, solve_riccati(one_two, cfg400), 1, 2),
                (one_two, solve_riccati(two_one, cfg400), 2, 1)):
            assert sol.control_nodes.shape[1:] == (3, 6)
            with pytest.raises(ContractViolation,
                               match=rf"^sol has \(n, m1, m2, T\) = "
                                     rf"\(3, {got}, {want}, 1.0\), expected "
                                     rf"\(3, {want}, {got}, 1.0\)$"):
                feedback_gain(problem, sol)

    @pytest.mark.parametrize("shape", [(401, 3, 4), (401, 5, 4), (401, 4),
                                       (400, 4, 4)])
    def test_law_gains_need_a_row_per_control_and_node(self, rand_law,
                                                       shape):
        # rand_law is of (n, m1, m2) = (4, 2, 2) on 400 steps
        with pytest.raises(ContractViolation,
                           match=re.escape(f"shaped (401, 4) + (n,), got "
                                           f"{shape}")):
            FeedbackLaw(rand_law.grid, np.zeros(shape), 2, 2)


class TestGameValue:
    def test_ex4_5_value(self, ex4_5_sol):
        assert game_value(ex4_5_sol, [1.0]) == pytest.approx(-1.0, abs=1e-8)

    @given(s=st.floats(-3, 3))
    @settings(max_examples=25)
    def test_quadratic_homogeneity(self, rand_sol, s):
        x = np.arange(1.0, rand_sol.P_nodes.shape[-1] + 1.0)
        assert game_value(rand_sol, s * x) == pytest.approx(
            s * s * game_value(rand_sol, x), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("x", BAD_START_STATES)
    def test_bad_start_state_refused(self, rand_problem, rand_sol, x):
        assert rand_problem.n == 4
        with pytest.raises(ContractViolation, match=BAD_START_MESSAGE):
            game_value(rand_sol, x)


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

    @pytest.mark.parametrize("x", BAD_START_STATES)
    def test_mean_path_bad_start_state_refused(self, rand_problem, rand_law,
                                               x):
        assert rand_problem.n == 4
        with pytest.raises(ContractViolation, match=BAD_START_MESSAGE):
            mean_state_path(closed_loop(rand_problem, rand_law), x)


class TestFbsdeResidual:
    def test_adjoint_is_P_times_state(self, rand_problem, rand_sol, rand_law):
        # along the mean closed-loop path, Y = P X with Z = P (C X + D u)
        # solves the adjoint equation dY/dt = -(A'Y + C'Z + Q X + S'u)
        system = closed_loop(rand_problem, rand_law)
        X = mean_state_path(system, np.ones(rand_problem.n))[:, :, None]
        table = coefficients(rand_problem, rand_sol.grid.nodes)
        u = rand_law.theta_nodes @ X
        Y = rand_sol.P_nodes @ X
        Z = rand_sol.P_nodes @ (table.C @ X + table.D @ u)
        drift = -(table.A.mT @ Y + table.C.mT @ Z + table.Q @ X
                  + table.S.mT @ u)
        dt = rand_sol.grid.dt
        dY = (Y[2:] - Y[:-2]) / (2 * dt)
        scale = 1.0 + np.abs(Y).max()
        assert np.abs(dY - drift[1:-1]).max() <= 10.0 * dt ** 2 * scale

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
        system = closed_loop(rand_problem, rand_law)
        X = mean_state_path(system, np.ones(rand_problem.n))
        res = fbsde_residual(rand_problem, rand_sol, rand_law, X)
        table = coefficients(rand_problem, rand_sol.grid.nodes)
        for j, (P, Th, x) in enumerate(zip(rand_sol.P_nodes,
                                           rand_law.theta_nodes, X)):
            A, B, C, D, Q, S, R = table_row(table, j)
            u = Th @ x
            Y, Z = P @ x, P @ (C @ x + D @ u)
            assert system.drift_nodes[j].tobytes() == (A + B @ Th).tobytes()
            assert system.diffusion_nodes[j].tobytes() == (C + D @ Th).tobytes()
            assert res[j] == np.linalg.norm(B.T @ Y + D.T @ Z + S @ x + R @ u)

    def test_grid_mismatch_rejected(self, rand_problem, rand_law):
        sol_coarse = solve_riccati(rand_problem, SolverConfig(n_steps=100),
                                   "game")
        X = np.ones((101, rand_problem.n))
        with pytest.raises(ContractViolation):
            fbsde_residual(rand_problem, sol_coarse, rand_law, X)
