import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqgame import (
    ContractViolation, ControlLaw, CostEstimate, OracleRegularityError,
    PathEnsemble, SaddleReport, SimulationDiverged, SolverConfig, TimeGrid,
    brownian_increments, discrete_oracle, estimate_cost, falsify_lower_value,
    feedback_gain, game_value, perturbation_directions, simulate,
    solve_riccati, verify_saddle,
)
from lqgame.core import _eig_extremes, _solve, coefficients, sym
from lqgame import evaluation
from lqgame.evaluation import (
    _Stepper, _constant_sweep, _estimate, _step_table, _tiles,
)
from conftest import random_game, scalar_game


@pytest.fixture(scope="module")
def grid():
    return TimeGrid(1.0, 200)


def ensemble_bytes(problem, n_paths, rows):
    """Bytes of ``rows`` kept rows of n_paths, plus a slack of 16 node slabs
    (d, n_paths) for the two node slabs, a step's temporaries and the
    coefficient table; no increments are kept."""
    d = problem.n + problem.m1 + problem.m2
    return 8 * n_paths * (rows + 16 * d)


def whole_run(problem, grid, dW, u1_fn, u2_fn, x):
    """One run over every node on all the paths of ``dW`` at once, by the
    formulas `_Stepper` steps, with no tile, stack, second slab or chunked
    draw: the per-run reference, fed the whole draw (`brownian_increments`
    or a hand-made one).  Records node k's rows z = (x; u1; u2) and returns
    them, shaped (n_nodes, d, n_paths), and each path's cost, added node by
    node as the stepper adds it; raises SimulationDiverged at the first step
    whose states are not all finite, naming the lowest such path."""
    n, m1, last = problem.n, problem.m1, grid.n_steps
    KM = _step_table(problem, grid)
    Zh = np.empty((last + 1, n + m1 + problem.m2, dW.shape[1]))
    Zh[0, :n] = np.array(x, float)[:, None]
    cost = np.zeros(dW.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        for k, Z in enumerate(Zh):
            u1_fn(k, Z[:n], Z[n:n + m1])
            u2_fn(k, Z[:n], Z[n + m1:])
            # the table's rows: the state moved by the drift over the step,
            # the diffusion and the trapezoid-weighted M z
            Y = KM[k] @ Z
            if k < last:
                Zh[k + 1, :n] = Y[n:2 * n] * dW[k] + Y[:n]
                bad = ~np.isfinite(Zh[k + 1, :n]).all(axis=0)
                if bad.any():
                    raise SimulationDiverged(int(np.argmax(bad)), k + 1)
            cost += _row_sum(Y[2 * n:] * Z)
        X = Zh[-1, :n]
        cost += _row_sum((problem.cost.G @ X) * X)
    return Zh, cost


def replay(saddle, player, v):
    """Control callables that replay the saddle controls, each of shape
    (n_nodes, m, n_paths), with the direction ``v`` of shape (n_nodes, m)
    added to one player's control at every step."""
    fns = [lambda k, X, out, U=U: np.copyto(out, U[k]) for U in saddle]
    U = saddle[player]
    fns[player] = lambda k, X, out: np.add(U[k], v[k][:, None], out=out)
    return fns


def fixed_draw(monkeypatch, dW):
    """Make the hand-made increments ``dW``, shaped (n_steps, n_paths), the
    draw of every seed: the stepper's draw function yields a tile's columns
    in one chunk, and `brownian_increments` returns ``dW``."""
    monkeypatch.setattr(evaluation, "_draw",
                        lambda seed, grid, t0, t1, out: iter([dW[:, t0:t1]]))
    monkeypatch.setattr(evaluation, "brownian_increments",
                        lambda seed, n, grid: dW)


def stacked_deviations(problem, grid, dW, saddle, deviations, x):
    """Each deviation's cost per path, shaped (J, n_paths), from one
    `whole_run` over the paths of all J deviations side by side, each
    replaying the saddle controls with its direction added: the untiled
    stacked reference."""
    J, n_paths = len(deviations), dW.shape[1]
    fns = [lambda k, X, out, i=i: np.concatenate(
        [saddle[i][k] + v[k][:, None] if player == i else saddle[i][k]
         for player, v in deviations], axis=1, out=out) for i in (0, 1)]
    return whole_run(problem, grid, np.tile(dW, J), *fns, x)[1].reshape(
        J, n_paths)


def traced_peak(fn, *args, **kwargs):
    """The tracemalloc peak, in bytes, of one call."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def block_reference(seed, n_paths, grid):
    """The whole draw by its definition: block b of 64 paths drawn whole,
    (n_steps, 64), from child b of the seed, the blocks side by side and the
    columns past n_paths dropped."""
    children = np.random.SeedSequence(seed).spawn(-(-n_paths // 64))
    return np.hstack([np.random.default_rng(c).normal(
        0.0, np.sqrt(grid.dt), (grid.n_steps, 64))
        for c in children])[:, :n_paths]


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
        assert np.array_equal(a, b[:, :4])

    def test_block_b_is_child_b_of_the_seed(self, grid):
        # 130 paths: blocks 0 and 1 whole, the first 2 paths of block 2
        dW = brownian_increments(42, 130, grid)
        assert dW.shape == (grid.n_steps, 130)
        children = np.random.SeedSequence(42).spawn(3)
        for b, r in ((0, 64), (1, 64), (2, 2)):
            block = np.random.default_rng(children[b]).normal(
                0.0, np.sqrt(grid.dt), (grid.n_steps, 64))
            assert np.array_equal(dW[:, 64 * b:64 * b + r], block[:, :r])

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
    def test_bad_seed_refused(self, grid, seed):
        with pytest.raises(ContractViolation, match="seed"):
            brownian_increments(seed, 4, grid)

    def test_numpy_integer_seed_accepted(self, grid):
        a = brownian_increments(np.int64(42), 4, grid)
        assert a.tobytes() == brownian_increments(42, 4, grid).tobytes()

    @pytest.mark.parametrize("n_paths", [0, -1, 2.5, True, "3"])
    def test_bad_n_paths_refused(self, grid, n_paths):
        with pytest.raises(ContractViolation, match="n_paths"):
            brownian_increments(0, n_paths, grid)

    @pytest.mark.parametrize("seed,n_paths,grid_args", [
        (43, 8, (1.0, 200)), (42, 9, (1.0, 200)), (42, 8, (1.0, 100)),
        (42, 8, (2.0, 200))])
    def test_other_key_is_a_miss(self, grid, seed, n_paths, grid_args):
        a = brownian_increments(42, 8, grid)
        b = brownian_increments(seed, n_paths, TimeGrid(*grid_args))
        assert b.shape == (grid_args[1], n_paths)
        assert b.tobytes() != a.tobytes()
        # nothing is kept: the first key draws again, the same numbers
        assert brownian_increments(42, 8, grid).tobytes() == a.tobytes()

    def test_negative_zero_horizon_draws_as_zero(self):
        zero = brownian_increments(3, 4, TimeGrid(0.0, 10))
        neg = brownian_increments(3, 4, TimeGrid(-0.0, 10))
        assert neg.tobytes() == zero.tobytes()

    @pytest.mark.parametrize("n_paths", [1, 64, 10_000])
    def test_matches_stacked_rows(self, grid, n_paths):
        ref = block_reference(7, n_paths, grid)
        dW = brownian_increments(7, n_paths, grid)
        assert dW.shape == ref.shape and dW.tobytes() == ref.tobytes()
        small = brownian_increments(7, 1, grid)
        assert small.tobytes() == np.ascontiguousarray(dW[:, :1]).tobytes()

    @pytest.mark.parametrize("chunk", [1, 7, 16, 200])
    @pytest.mark.parametrize("width", [64, 128, 320])
    def test_tile_draws_are_the_whole_draw(self, grid, width, chunk):
        # the stepper's tiles of ``width`` paths, drawn ``chunk`` steps at a
        # time, are the columns of the whole draw; 333 paths end in a
        # partial block of 13, and a tile of 64 paths may take 13 more
        n_paths = 333
        whole = brownian_increments(11, n_paths, grid)
        tiles = list(zip(range(0, n_paths, width),
                         [*range(width, n_paths, width), n_paths]))
        tiles += [(256, 333)]
        for t0, t1 in tiles:
            out = np.empty((chunk, t1 - t0))
            got = np.concatenate([c.copy() for c in evaluation._draw(
                11, grid, t0, t1, out)])
            assert got.tobytes() == np.ascontiguousarray(
                whole[:, t0:t1]).tobytes()

    def test_ito_isometry(self, grid):
        dW = brownian_increments(0, 4000, grid)
        W_T = dW.sum(axis=0)
        # E[W_T^2] = T = 1 within Monte-Carlo noise
        assert np.mean(W_T ** 2) == pytest.approx(1.0, abs=0.1)
        assert np.mean(W_T) == pytest.approx(0.0, abs=0.05)


class TestSimulate:
    def test_zero_dynamics_state_constant(self, grid):
        p = scalar_game()
        zero = ControlLaw.constant([0.0])
        Zh, cost = whole_run(p, grid, brownian_increments(0, 5, grid),
                             zero.as_callable(grid), zero.as_callable(grid),
                             [3.0])
        assert np.all(Zh[:, 0] == 3.0)
        ens = simulate(p, zero, zero, [3.0], grid, 5, 0)
        assert ens.costs.tobytes() == cost.tobytes()

    def test_ensemble_fields(self):
        # an ensemble keeps each path's cost, no path rows and no draw
        assert [f.name for f in dataclasses.fields(PathEnsemble)] == [
            "grid", "n_paths", "seed", "costs", "u1", "u2"]

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
        X = np.ones((rand_problem.n, 3))
        out = np.empty((rand_problem.m1, 3))
        u1.as_callable(grid)(0, X, out)
        assert np.allclose(out, law.theta_nodes[0][:rand_problem.m1] @ X)

    @pytest.mark.parametrize("n_paths", [1, 64, 500])
    @pytest.mark.parametrize("kind", ["feedback", "constant"])
    def test_paths_are_the_loop_rows(self, rand_problem, cfg400, grid,
                                     n_paths, kind):
        # the ensemble's costs are those of the per-run reference on the
        # whole draw of its seed and size
        p = rand_problem
        if kind == "feedback":
            law = feedback_gain(p, solve_riccati(p, cfg400, "game"))
            u = [ControlLaw.from_feedback(law, i, grid) for i in (1, 2)]
        else:
            u = [ControlLaw.constant(np.linspace(-1.0, 2.0, m))
                 for m in (p.m1, p.m2)]
        x = np.linspace(-1.0, 1.0, p.n)
        ens = simulate(p, *u, x, grid, n_paths, 3)
        dW = brownian_increments(3, n_paths, grid)
        costs = whole_run(p, grid, dW, *(c.as_callable(grid) for c in u),
                          x)[1]
        assert ens.costs.tobytes() == costs.tobytes()

    def test_history_bounded(self, rand_problem, cfg400, grid):
        # the ensemble records no row and keeps no draw: the peak stays
        # below the slack
        p, n_paths = rand_problem, 2000
        law = feedback_gain(p, solve_riccati(p, cfg400, "game"))
        u = [ControlLaw.from_feedback(law, i, grid) for i in (1, 2)]
        peak = traced_peak(simulate, p, *u, np.ones(p.n), grid, n_paths, 5)
        assert peak < ensemble_bytes(p, n_paths, 0)

    @pytest.mark.parametrize("value", [[np.nan], np.inf, [0.0, -np.inf],
                                       [[1.0, 2.0]]])
    def test_bad_constant_refused(self, value):
        with pytest.raises(ContractViolation,
                           match="value must be a finite vector"):
            ControlLaw.constant(value)

    @pytest.mark.parametrize("args,message", [
        (("bogus",), "unknown control law kind 'bogus'"),
        (("bogus", None, np.zeros(1)), "unknown control law kind 'bogus'"),
        (("feedback",), "gains must be a finite 3-d array"),
        (("feedback", np.full((201, 1, 1), np.nan)),
         "gains must be a finite 3-d array"),
        (("feedback", np.ones((201, 1))), "gains must be a finite 3-d array"),
        (("constant",), "value must be a finite vector")],
        ids=["bogus", "bogus-value", "feedback-no-gains", "feedback-nan",
             "feedback-2d", "constant-no-value"])
    def test_bad_law_refused_where_built(self, args, message):
        # a law the stepper would run as a constant, fail on with an
        # AttributeError or report as SimulationDiverged is refused here
        with pytest.raises(ContractViolation, match=f"^{message}$"):
            ControlLaw(*args)

    def test_nan_gains_refused_not_simulated(self, ex3_4, grid):
        gains = np.zeros((grid.n_steps + 1, 1, 1))
        gains[7] = np.nan
        with pytest.raises(ContractViolation,
                           match="gains must be a finite 3-d array"):
            simulate(ex3_4, ControlLaw("feedback", gains),
                     ControlLaw.constant([0.0]), [1.0], grid, 2, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_start_state_refused(self, rand_problem, cfg400, grid,
                                            monkeypatch, bad):
        # refused before anything is drawn
        sol = solve_riccati(rand_problem, cfg400, "game")
        law = feedback_gain(rand_problem, sol)
        x = np.ones(rand_problem.n)
        x[-1] = bad

        def draw(*args):
            raise AssertionError("increments drawn")

        monkeypatch.setattr(evaluation, "_draw", draw)
        with pytest.raises(ContractViolation, match="start state x"):
            simulate(rand_problem, ControlLaw.from_feedback(law, 1, grid),
                     ControlLaw.from_feedback(law, 2, grid), x, grid, 4, 0)
        with pytest.raises(ContractViolation, match="start state x"):
            verify_saddle(rand_problem, sol, law, x, n_perturbations=1,
                          n_paths=4, seed=0)

    @staticmethod
    def _diverged_at(p, grid, dW, public, monkeypatch):
        """The (path, step) a zero-control run of ``p`` on the hand-made
        increments ``dW`` names: through the public `simulate`, or through a
        `_Stepper` stack of one; the per-run reference must name the
        same."""
        zero = ControlLaw.constant([0.0])
        fns = [zero.as_callable(grid)] * 2
        ref = divergence(whole_run, p, grid, dW, *fns, [1.0])
        fixed_draw(monkeypatch, dW)
        if public:
            got = divergence(simulate, p, zero, zero, [1.0], grid,
                             dW.shape[1], 0)
        else:
            got = divergence(_Stepper(p, grid, 0, dW.shape[1], *fns).run,
                             np.ones(1))
        assert got == ref
        return got

    @pytest.mark.parametrize("public", [False, True])
    def test_divergence_names_path_and_step(self, grid, monkeypatch, public):
        # diffusion C x with a huge C: the state stays at 1 while the
        # increments are 0, and one hand-made increment overflows one path
        p = scalar_game(C=1e300)
        dW = np.zeros((grid.n_steps, 5))
        dW[6, 3] = 1e10
        assert self._diverged_at(p, grid, dW, public, monkeypatch) == (3, 7)

    @pytest.mark.parametrize("public", [False, True])
    def test_earliest_step_and_lowest_path_named(self, grid, monkeypatch,
                                                 public):
        # path 0 overflows at step 12, paths 4 and 2 at step 5
        p = scalar_game(C=1e300)
        dW = np.zeros((grid.n_steps, 5))
        dW[11, 0] = dW[4, 4] = dW[4, 2] = 1e10
        assert self._diverged_at(p, grid, dW, public, monkeypatch) == (2, 5)

    def test_nan_state_is_a_divergence(self, grid, monkeypatch):
        # diffusion 1e300 x: one hand-made increment of 1e-291 takes path 3
        # to x = 1 + 1e9 at step 7, where the diffusion overflows to inf
        # and the next increment, 0, makes inf * 0 = nan
        p = scalar_game(C=1e300)
        dW = np.zeros((grid.n_steps, 5))
        dW[6, 3] = 1e-291

        def same(k, X, out):
            out[...] = X

        assert divergence(whole_run, p, grid, dW, same, same, [1.0]) == (3, 8)
        fixed_draw(monkeypatch, dW)
        assert divergence(_Stepper(p, grid, 0, 5, same, same).run,
                          np.ones(1)) == (3, 8)

    def test_divergence_in_a_deviation_replay(self, grid, monkeypatch):
        # the saddle controls are 0; the second player-1 deviation's
        # direction of 1e5 at nodes 5 and 8, through D1 = 1e300, overflows
        # the next step's state where the increment is 1e10: path 3 at step
        # 9 and path 2 at step 6
        p = scalar_game(D1=1e300)
        dW = np.zeros((grid.n_steps, 4))
        dW[8, 3] = dW[5, 2] = 1e10
        V1 = np.zeros((grid.n_steps + 1, 1, 2))
        V1[[5, 8], 0, 1] = 1e5
        V2 = np.zeros((grid.n_steps + 1, 1, 1))
        zero = ControlLaw.constant([0.0]).as_callable(grid)
        fixed_draw(monkeypatch, dW)
        stack = _Stepper(p, grid, 0, 4, zero, zero, (V1, V2))
        assert divergence(stack.run, np.ones(1)) == (2, 6)
        saddle = (np.zeros((grid.n_steps + 1, 1, 4)),) * 2
        assert divergence(whole_run, p, grid, dW,
                          *replay(saddle, 0, V1[:, :, 1]), [1.0]) == (2, 6)

    def test_large_finite_states_are_not_a_divergence(self, monkeypatch):
        # two finite states of 1.2e308 overflow their sum, not the state
        grid = TimeGrid(1.0, 10)
        dW = np.zeros((grid.n_steps, 3))
        dW[2, 1:] = 1.2e308
        zero = ControlLaw.constant([0.0])
        p = scalar_game(C=1.0)
        Zh, cost = whole_run(p, grid, dW, zero.as_callable(grid),
                             zero.as_callable(grid), [1.0])
        assert np.array_equal(Zh[-1, 0], [1.0, 1.2e308, 1.2e308])
        fixed_draw(monkeypatch, dW)
        ens = simulate(p, zero, zero, [1.0], grid, 3, 0)
        assert ens.costs.tobytes() == cost.tobytes()


def _row_sum(W):
    """Sum of the rows of W, added one after another."""
    s = W[0].copy()
    for row in W[1:]:
        s = s + row
    return s


def reference_costs(problem, grid, Zh):
    """Per-path payoff priced after the simulation from the recorded rows
    ``Zh`` of `whole_run`: node k's quadratic form z'(w_k M)z, with w_k its
    trapezoid weight (dt/2 at the two end nodes, dt inside) and the
    products summed row by row, summed in time order, plus the terminal
    term x'Gx summed the same way."""
    table = coefficients(problem, grid.nodes)
    M = np.block([[table.Q, table.S.swapaxes(1, 2)], [table.S, table.R]])
    running = np.zeros(Zh.shape[2])
    for k in range(grid.n_steps + 1):
        z = Zh[k]
        weight = grid.dt / 2 if k in (0, grid.n_steps) else grid.dt
        running = running + _row_sum(((weight * M[k]) @ z) * z)
    x = Zh[-1, :problem.n]
    return running + _row_sum((problem.cost.G @ x) * x)


class TestCostEstimate:
    @pytest.mark.parametrize("n_paths", [1, 64, 500])
    def test_ex3_2_constant_controls_match_reference(self, ex3_2, grid,
                                                     n_paths):
        # sampled, time-varying R12/R22
        for a, b in ((0.0, 1.0), (2.0, 0.0), (1.0, 3.0)):
            ens = simulate(ex3_2, ControlLaw.constant([a]),
                           ControlLaw.constant([b]), [1.0], grid, n_paths, 4)
            self._assert_matches_reference(ex3_2, grid, ens, [1.0])

    @pytest.mark.parametrize("n_paths", [1, 64, 500])
    def test_feedback_laws_match_reference(self, rand_problem, cfg400, grid,
                                           n_paths):
        sol = solve_riccati(rand_problem, cfg400, "game")
        law = feedback_gain(rand_problem, sol)
        x = np.ones(rand_problem.n)
        ens = simulate(rand_problem, ControlLaw.from_feedback(law, 1, grid),
                       ControlLaw.from_feedback(law, 2, grid), x, grid,
                       n_paths, 8)
        self._assert_matches_reference(rand_problem, grid, ens, x)

    @staticmethod
    def _assert_matches_reference(problem, grid, ens, x):
        # the rows of a recorded run on the ensemble's draw and laws
        dW = brownian_increments(ens.seed, ens.n_paths, grid)
        Zh, _ = whole_run(problem, grid, dW,
                          ens.u1.as_callable(grid), ens.u2.as_callable(grid),
                          x)
        ref = reference_costs(problem, grid, Zh)
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


@pytest.fixture
def tile64(monkeypatch):
    """Tiles of 64 paths: a tile budget below one path's buffers."""
    monkeypatch.setattr(evaluation, "_TILE_BYTES", 1)


@pytest.fixture(scope="module")
def saddle_law(rand_problem, cfg400):
    """The game solution of ``rand_problem`` and its feedback law."""
    sol = solve_riccati(rand_problem, cfg400, "game")
    return sol, feedback_gain(rand_problem, sol)


class TestDeviationReplay:
    @pytest.mark.parametrize("n_paths", [1, 64, 500])
    def test_cost_only_run_matches_history_run(self, rand_problem, saddle_law,
                                               grid, n_paths):
        # a deviation of the stack is the base run's control rows replayed
        # with its direction added to one player's: a whole run of those
        # rows, priced after from its rows, costs what the stack's deviation
        # costs; below 4 paths, what the untiled stacked reference's costs
        p, (_, law) = rand_problem, saddle_law
        x = np.ones(p.n)
        n, m1 = p.n, p.m1
        dW = brownian_increments(3, n_paths, grid)
        fns = [ControlLaw.from_feedback(law, i, grid).as_callable(grid)
               for i in (1, 2)]
        Zh, base = whole_run(p, grid, dW, *fns, x)
        saddle = (Zh[:, n:n + m1], Zh[:, n + m1:])
        deviations = [(player, perturbation_directions(
            player, 1, grid, saddle[player].shape[1])[0]) for player in (0, 1)]
        costs = _Stepper(p, grid, 3, n_paths, *fns,
                         [v[:, :, None] for _, v in deviations]).run(x)
        assert costs[0].tobytes() == base.tobytes()
        whole = []
        for player, v in deviations:
            hist, full = whole_run(p, grid, dW, *replay(saddle, player, v), x)
            assert full.tobytes() == reference_costs(p, grid, hist).tobytes()
            controls = (hist[:, n:n + m1], hist[:, n + m1:])
            assert np.array_equal(controls[player],
                                  saddle[player] + v[:, :, None])
            assert np.array_equal(controls[1 - player], saddle[1 - player])
            whole.append(full)
        if n_paths < 4:
            whole = stacked_deviations(p, grid, dW, saddle, deviations, x)
        assert costs[1:].tobytes() == np.array(whole).tobytes()


def unblocked_verify(problem, sol, law, x, n_perturbations, n_paths, seed,
                     sim_steps):
    """verify_saddle as one whole base run that keeps every node's control
    rows, then each deviation run whole in turn, replaying them: the
    per-run reference the tiled stack must equal bit for bit, a
    SimulationDiverged's path and step included.  Below 4 paths the
    deviations are the untiled stacked reference instead, whose products,
    as the stack's, take every deviation's paths at once: a product of 1 to
    3 columns need not round as one of more columns does."""
    grid = TimeGrid(problem.horizon_T, sim_steps)
    n, m1 = problem.n, problem.m1
    dW = evaluation.brownian_increments(seed, n_paths, grid)
    fns = [ControlLaw.from_feedback(law, i, grid).as_callable(grid)
           for i in (1, 2)]
    Zh, base = whole_run(problem, grid, dW, *fns, x)
    saddle = (Zh[:, n:n + m1], Zh[:, n + m1:])
    deviations = [(player, v) for player, m in enumerate((m1, problem.m2))
                  for v in perturbation_directions(seed + 1 + player,
                                                   n_perturbations, grid, m)]
    if n_paths < 4:
        costs = stacked_deviations(problem, grid, dW, saddle, deviations, x)
    else:
        costs = np.array([whole_run(problem, grid, dW,
                                    *replay(saddle, player, v), x)[1]
                          for player, v in deviations])
    gaps = [[_estimate(cost - base) for cost in block]
            for block in np.split(costs, 2)]
    return SaddleReport(value_analytic=game_value(sol, x),
                        value_mc=_estimate(base), gaps_player1=gaps[0],
                        gaps_player2=gaps[1])


def divergence(fn, *args):
    """The (path, step) of the SimulationDiverged a call raises."""
    with pytest.raises(SimulationDiverged) as exc:
        fn(*args)
    return exc.value.path, exc.value.step


class TestTiles:
    def test_tiles_of_64_paths(self, tile64):
        def widths(n_paths):
            return [t1 - t0 for t0, t1 in _tiles(n_paths, 1)]

        # a remainder under 64 paths joins the last tile
        assert _tiles(4, 1) == [(0, 4)]
        assert widths(65) == [65] and widths(128) == [64, 64]
        assert widths(500) == [64] * 6 + [116]
        assert widths(777) == [64] * 11 + [73]

    @pytest.mark.parametrize("path_bytes", [8, 1408, 2904, 10 ** 6])
    def test_tiles_fit_the_budget(self, path_bytes):
        tiles = _tiles(10_000, path_bytes)
        assert [t0 for t0, _ in tiles[1:]] == [t1 for _, t1 in tiles[:-1]]
        assert tiles[0][0] == 0 and tiles[-1][1] == 10_000
        width = tiles[0][1] - tiles[0][0]
        assert width % 64 == 0 or len(tiles) == 1
        assert (width * path_bytes <= evaluation._TILE_BYTES
                or width == 64)

    @pytest.mark.parametrize("n_paths", [1, 2, 3, 65, 777])
    def test_simulate_is_the_saddle_base(self, rand_problem, saddle_law,
                                         grid, tile64, n_paths):
        # simulate steps its stack of one as the saddle check steps its
        # base run, tile by tile, and as the per-run reference steps it
        p, (sol, law) = rand_problem, saddle_law
        x = np.linspace(-1.0, 1.0, p.n)
        laws = [ControlLaw.from_feedback(law, i, grid) for i in (1, 2)]
        fns = [u.as_callable(grid) for u in laws]
        ens = simulate(p, *laws, x, grid, n_paths, 6)
        dW = brownian_increments(6, n_paths, grid)
        directions = [np.stack(perturbation_directions(7 + i, 2, grid, m),
                               axis=2) for i, m in enumerate((p.m1, p.m2))]
        stack = _Stepper(p, grid, 6, n_paths, *fns, directions).run(x)
        assert ens.costs.tobytes() == stack[0].tobytes()
        assert ens.costs.tobytes() == whole_run(p, grid, dW, *fns,
                                                x)[1].tobytes()
        report = verify_saddle(p, sol, law, x, 2, n_paths, 6)
        assert report.value_mc == estimate_cost(p, ens)


class TestVerifySaddle:
    def test_random_instance_passes(self, rand_problem, saddle_law):
        sol, law = saddle_law
        report = verify_saddle(rand_problem, sol, law, np.ones(rand_problem.n),
                               n_perturbations=3, n_paths=2000, seed=5)
        assert report.verdict == "PASS"
        assert all(g.mean >= -3 * g.std_error for g in report.gaps_player1)
        assert all(g.mean <= 3 * g.std_error for g in report.gaps_player2)

    def test_base_controls_are_not_copied(self, rand_problem, saddle_law):
        # no run keeps a control or state row between tiles, and no draw is
        # kept: the peak stays below the 1 + 2 cost rows, the tile budget
        # (its chunk of increments included) and 1 MiB for the step table,
        # the directions and a step's temporaries
        (sol, law), p, n_paths = saddle_law, rand_problem, 2000
        peak = traced_peak(verify_saddle, p, sol, law, np.ones(p.n),
                           n_perturbations=1, n_paths=n_paths, seed=5)
        bound = 8 * n_paths * 3 + evaluation._TILE_BYTES + 2 ** 20
        assert peak < bound

    @pytest.mark.parametrize("name,value", [
        ("n_perturbations", 0), ("n_perturbations", -1),
        ("n_perturbations", 1.5), ("n_perturbations", True),
        ("sim_steps", 1), ("sim_steps", 2.0), ("sim_steps", True)])
    def test_bad_count_refused_before_draw(self, rand_problem, saddle_law,
                                           monkeypatch, name, value):
        sol, law = saddle_law

        def draw(*args):
            raise AssertionError("increments drawn")

        monkeypatch.setattr(evaluation, "_draw", draw)
        counts = {"n_perturbations": 1, "sim_steps": 200, name: value}
        with pytest.raises(ContractViolation,
                           match=f"{name} must be an integer >= "):
            verify_saddle(rand_problem, sol, law, np.ones(rand_problem.n),
                          n_paths=4, seed=0, **counts)

    @pytest.mark.parametrize("kind", ["player1", "player2"])
    def test_non_game_solution_refused_before_draw(self, rand_problem,
                                                   cfg400, saddle_law,
                                                   monkeypatch, kind):
        # the solution's kind is checked before anything is drawn or run
        law = saddle_law[1]
        other = solve_riccati(rand_problem, cfg400, kind)

        def draw(*args):
            raise AssertionError("increments drawn")

        monkeypatch.setattr(evaluation, "_draw", draw)
        with pytest.raises(ContractViolation, match="game-kind solution"):
            verify_saddle(rand_problem, other, law, np.ones(rand_problem.n),
                          n_perturbations=1, n_paths=10_000, seed=0)

    def test_matches_copied_controls_reference(self, rand_problem,
                                               saddle_law):
        # the reference replays contiguous copies of the base controls
        sol, law = saddle_law
        x, seed, grid = np.ones(rand_problem.n), 5, TimeGrid(1.0, 200)
        n, m1 = rand_problem.n, rand_problem.m1
        fns = [ControlLaw.from_feedback(law, i, grid) for i in (1, 2)]
        base = simulate(rand_problem, *fns, x, grid, 500, seed)
        dW = brownian_increments(seed, 500, grid)
        Zh, _ = whole_run(rand_problem, grid, dW,
                          *(f.as_callable(grid) for f in fns), x)
        saddle = (np.ascontiguousarray(Zh[:, n:n + m1]),
                  np.ascontiguousarray(Zh[:, n + m1:]))
        gaps = ([], [])
        for player, m in enumerate((m1, rand_problem.m2)):
            for v in perturbation_directions(seed + 1 + player, 2, grid, m):
                costs = whole_run(rand_problem, grid, dW,
                                  *replay(saddle, player, v), x)[1]
                gaps[player].append(_estimate(costs - base.costs))
        ref = SaddleReport(value_analytic=game_value(sol, x),
                           value_mc=_estimate(base.costs),
                           gaps_player1=gaps[0], gaps_player2=gaps[1])
        report = verify_saddle(rand_problem, sol, law, x, n_perturbations=2,
                               n_paths=500, seed=seed)
        # repr spells each float exactly, so equal reprs are equal bits
        assert repr(report) == repr(ref)

    @pytest.mark.parametrize("n_paths", [1, 2, 3, 4, 64, 500, 777])
    @pytest.mark.parametrize("sim_steps", [200, 37, 12, 15, 16])
    def test_blocks_match_unblocked_reference(self, rand_problem, saddle_law,
                                              tile64, n_paths, sim_steps):
        # tiles of 64 paths: 500 paths make 6 tiles and a last one of 116,
        # 777 make 11 and a last one of 73, a remainder of 9 merged; from 4
        # paths on, the reference runs each deviation whole in turn
        sol, law = saddle_law
        args = (rand_problem, sol, law, np.linspace(-1.0, 1.0, rand_problem.n),
                2, n_paths, 6, sim_steps)
        # repr spells each float exactly, so equal reprs are equal bits
        assert repr(verify_saddle(*args)) == repr(unblocked_verify(*args))

    @staticmethod
    def _noise_game(monkeypatch, cfg400, C, D1, D2, kicks, n_paths=200):
        """A scalar game whose P and feedback gains are 0, so the base run's
        controls are 0 and its state moves only by C x dW, while a player's
        deviation adds D v dW; the increments are 0 but for ``kicks``, a map
        (step index, path) -> increment, given to every run."""
        p = scalar_game(C=C, D1=D1, D2=D2)
        sol = solve_riccati(p, cfg400, "game")
        law = feedback_gain(p, sol)
        assert not sol.P_nodes.any() and not law.theta_nodes.any()
        dW = np.zeros((200, n_paths))
        for at, kick in kicks.items():
            dW[at] = kick
        fixed_draw(monkeypatch, dW)
        return (p, sol, law, [1.0], 2, n_paths, 0, 200)

    def test_deviation_divergence_in_a_later_block(self, monkeypatch,
                                                   cfg400, tile64):
        # tiles of 64 paths: player 2's deviations overflow at step 41 on
        # path 2; player 1's at step 150 on path 3, in the first tile, and at
        # step 101 on path 70, in the second.  As when each run goes whole
        # in turn, the first deviation, player 1's, is named at its first
        # such step
        args = self._noise_game(monkeypatch, cfg400, C=0.0, D1=1e290,
                                D2=1e300, kicks={(40, 2): 1e15,
                                                 (149, 3): 1e25,
                                                 (100, 70): 1e25})
        assert divergence(verify_saddle, *args) == (70, 101)
        assert divergence(unblocked_verify, *args) == (70, 101)

    def test_base_divergence_named_first(self, monkeypatch, cfg400, tile64):
        # tiles of 64 paths: player 1's deviations overflow at step 21 on
        # path 1, in the first tile, the base run (and every run) at step
        # 151 on path 100, in the second: the base run is named
        args = self._noise_game(monkeypatch, cfg400, C=10.0, D1=1e300,
                                D2=0.0, kicks={(20, 1): 1e15,
                                               (150, 100): 1e308})
        assert divergence(verify_saddle, *args) == (100, 151)
        assert divergence(unblocked_verify, *args) == (100, 151)

    def test_perturbation_directions_unit_norm(self, grid):
        for v in perturbation_directions(0, 4, grid, 2):
            norm_sq = np.trapezoid(np.sum(v * v, axis=1), dx=grid.dt)
            assert norm_sq == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name,value", [
        ("count", 0), ("count", -2), ("count", 1.5), ("seed", -1),
        ("seed", 2.0), ("m", 0), ("m", True)])
    def test_bad_perturbation_input_refused(self, grid, name, value):
        args = {"seed": 0, "count": 2, "m": 1, name: value}
        with pytest.raises(ContractViolation,
                           match=f"{name} must be an integer >= "):
            perturbation_directions(args["seed"], args["count"], grid,
                                    args["m"])

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


def reference_oracle(problem, x, N):
    """discrete_oracle as one loop that forms every term of a step inside
    that step: the reference the oracle must equal bit for bit, value,
    gains and the step and margin of an OracleRegularityError included."""
    x = np.atleast_1d(np.asarray(x, float))
    n, m1 = problem.n, problem.m1
    T = problem.horizon_T
    dt = T / N
    nodes = np.linspace(0.0, T, N + 1)
    table = coefficients(problem, nodes)

    P = np.array(problem.cost.G)
    gains = [None] * N
    for k in range(N - 1, -1, -1):
        A0, B0, C0, D0, Q0, S0, R0 = (c[k] for c in table)
        Q1, S1, R1 = table.Q[k + 1], table.S[k + 1], table.R[k + 1]
        M = np.eye(n) + dt * A0
        Nu = dt * B0
        W = P + 0.5 * dt * Q1
        Qt = 0.5 * dt * Q0 + M.T @ W @ M + dt * C0.T @ W @ C0
        St = 0.5 * dt * S0 + 0.5 * dt * S1 @ M + Nu.T @ W @ M + dt * D0.T @ W @ C0
        Rt = sym(0.5 * dt * R0 + 0.5 * dt * (R1 + S1 @ Nu + Nu.T @ S1.T)
                 + Nu.T @ W @ Nu + dt * D0.T @ W @ D0)
        lo = _eig_extremes(Rt[:m1, :m1])[0]
        if lo <= 0:
            raise OracleRegularityError(k, lo)
        Phi = Rt[m1:, m1:] - Rt[m1:, :m1] @ _solve(Rt[:m1, :m1], Rt[:m1, m1:])
        hi = _eig_extremes(sym(Phi))[1]
        if hi >= 0:
            raise OracleRegularityError(k, hi)
        RinvS = _solve(Rt, St)
        gains[k] = -RinvS
        P = sym(Qt - St.T @ RinvS)
    return float(x @ P @ x), gains


def oracle_bits(oracle, problem, x, N):
    """The bytes of an oracle's value and gains, or of the step and margin
    of the OracleRegularityError it raised."""
    try:
        value, gains = oracle(problem, x, N)
    except OracleRegularityError as err:
        return "error", err.step, np.float64(err.margin).tobytes()
    return ("value", np.float64(value).tobytes(),
            [(g.shape, g.strides, g.tobytes()) for g in gains])


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


    @pytest.mark.parametrize("name", [
        "constant", "sampled", "noise_free", "ex5_2", "ex4_5"])
    def test_matches_reference(self, name, rand_problem, rand_det_problem,
                               ex5_2, ex4_5):
        # random_game(45) is sampled in time with n = 3, m1 = m2 = 2; ex5_2
        # loses definiteness at the last step for every N
        problem = {"constant": rand_problem, "sampled": random_game(45),
                   "noise_free": rand_det_problem, "ex5_2": ex5_2,
                   "ex4_5": ex4_5}[name]
        x = np.linspace(-1.0, 1.0, problem.n) + 0.5
        for N in (1, 2, 32, 200):
            got = oracle_bits(discrete_oracle, problem, x, N)
            assert got == oracle_bits(reference_oracle, problem, x, N)
        assert (got[0] == "error") == (name == "ex5_2")

    @given(seed=st.integers(0, 2 ** 32 - 1), N=st.integers(1, 40),
           noise=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_on_random_games(self, seed, N, noise):
        # random_game's scales make about half of these lose definiteness
        problem = random_game(seed, noise=noise)
        x = np.random.default_rng(seed).normal(size=problem.n)
        assert (oracle_bits(discrete_oracle, problem, x, N)
                == oracle_bits(reference_oracle, problem, x, N))

    @pytest.mark.parametrize("N", [0, -3, 2.5, 4.0, "8", None, True])
    def test_bad_step_count_refused(self, rand_problem, N):
        with pytest.raises(ContractViolation,
                           match="N must be an integer >= 1, got "):
            discrete_oracle(rand_problem, np.ones(rand_problem.n), N)

    def test_numpy_step_count_accepted(self, rand_problem):
        x = np.ones(rand_problem.n)
        assert (oracle_bits(discrete_oracle, rand_problem, x, np.int64(8))
                == oracle_bits(discrete_oracle, rand_problem, x, 8))

    @pytest.mark.parametrize("x", [[1.0], np.ones(5), [[1.0] * 4],
                                   [1.0, np.nan, 1.0, 1.0],
                                   [np.inf, 0.0, 0.0, 0.0]])
    def test_bad_start_state_refused(self, rand_problem, x):
        assert rand_problem.n == 4
        with pytest.raises(ContractViolation,
                           match="start state x must be a finite vector "
                                 "of length 4"):
            discrete_oracle(rand_problem, x, 8)


class TestFalsifier:
    def test_ex3_4_table(self, ex3_4):
        table = falsify_lower_value(ex3_4, [1.0], [0.0, 10.0, 100.0],
                                    n_paths=50, seed=0)
        for lam, est in table:
            assert est.mean == pytest.approx(-(1.0 + 2.0 * lam), abs=1e-8)
        means = [est.mean for _, est in table]
        assert means[0] > means[1] > means[2]

    @pytest.mark.parametrize("n_paths", [4, 64, 500])
    def test_sweep_is_each_simulation(self, ex3_2, grid, tile64, n_paths):
        # each constant pair of the one-draw stack costs what simulate
        # prices it at on the same seed, bit for bit, from 4 paths on
        levels = ([0.0, 1.0, -2.5], [1.0, 3.0])
        base, *sweeps = _constant_sweep(ex3_2, [1.0], grid, n_paths, 4,
                                        *levels)
        pairs = [(0.0, 0.0)] + [(lam, 0.0) for lam in levels[0]] \
            + [(0.0, lam) for lam in levels[1]]
        for (a, b), est in zip(pairs, [base, *sweeps[0], *sweeps[1]]):
            ens = simulate(ex3_2, ControlLaw.constant([a]),
                           ControlLaw.constant([b]), [1.0], grid, n_paths, 4)
            assert est == estimate_cost(ex3_2, ens)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_scalar_refused(self, ex3_2, bad):
        with pytest.raises(ContractViolation, match="scalars must be finite"):
            falsify_lower_value(ex3_2, [1.0], [0.0, bad], 8, 0)
