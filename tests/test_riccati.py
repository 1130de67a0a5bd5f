import copy
import dataclasses
import gc
import pickle
import traceback
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqgame import (
    BlowUpError, CertificateReport, CoefficientPath, ContractViolation,
    CostWeights, GameProblem, OracleRegularityError, PartialPath,
    RegularityError, RepresentationSingularError, RiccatiSolution,
    SimulationDiverged, SingularBlockError, SolverConfig, StateDynamics,
    TimeGrid, certify_A3, coefficients, comparison_check, equivalence_report,
    example_problem, fundamental_matrix, hamiltonian, regularized_problem,
    representation, riccati, solve_lambda_family, solve_riccati, sym,
)
from lqgame.core import _assemble, _solve, assemble
from lqgame.riccati import KINDS, _field, _Kinds, _solve_stack
from conftest import random_game, scalar_game


def reference_solve(problem, config, kind):
    """The backward RK4 loop for one equation alone, stage by stage: the
    reference that every member of a stacked pass must equal bit for bit,
    error, failure time, side, margin and partial path included."""
    grid = TimeGrid(problem.horizon_T, config.n_steps)
    nodes, h, eps, m1 = grid.nodes, grid.dt, config.eps_reg, problem.m1
    times = np.empty(2 * grid.n_steps + 1)
    times[0::2] = nodes
    times[1::2] = 0.5 * (nodes[:-1] + nodes[1:])
    table = coefficients(problem, times)

    def check(t, margins):
        margin1, margin2 = margins
        if kind in ("game", "player1") and margin1 <= eps:
            raise RegularityError(t, 1, margin1)
        if kind in ("game", "player2") and margin2 >= -eps:
            raise RegularityError(t, 2, margin2)

    def field(row, P, R_P, S_P):
        if kind == "player1":
            Rk, Sk = R_P[:m1, :m1], S_P[:m1, :]
        elif kind == "player2":
            Rk, Sk = R_P[m1:, m1:], S_P[m1:, :]
        else:
            Rk, Sk = R_P, S_P
        A, C, Q = row.A, row.C, row.Q
        return sym(-(P @ A + A.T @ P + C.T @ P @ C + Q
                     - Sk.T @ np.linalg.solve(Rk, Sk)))

    def rhs(row, t, P):
        R_P, S_P, margins = assemble(row, P, m1)
        check(t, margins)
        return field(row, P, R_P, S_P)

    P = np.array(problem.cost.G)
    node = table.row(2 * grid.n_steps)
    R_P, S_P, margins = assemble(node, P, m1)
    done = [(nodes[-1], P, margins)]

    def path():
        t, Ps, ms = zip(*done[::-1])
        return (np.array(t), np.array(Ps), np.array([m[0] for m in ms]),
                np.array([m[1] for m in ms]))

    try:
        check(nodes[-1], margins)
        for k in range(grid.n_steps, 0, -1):
            t0 = nodes[k - 1]
            mid, prev = table.row(2 * k - 1), table.row(2 * k - 2)
            k1 = field(node, P, R_P, S_P)
            k2 = rhs(mid, times[2 * k - 1], sym(P - 0.5 * h * k1))
            k3 = rhs(mid, times[2 * k - 1], sym(P - 0.5 * h * k2))
            k4 = rhs(prev, t0, sym(P - h * k3))
            P = sym(P - (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
            norm = float(np.linalg.norm(P))
            if not np.isfinite(norm) or norm > config.blowup_cap:
                raise BlowUpError(t0, norm)
            node = prev
            R_P, S_P, margins = assemble(node, P, m1)
            check(t0, margins)
            done.append((t0, P, margins))
    except RegularityError as err:
        raise RegularityError(err.time, err.side, err.margin,
                              PartialPath(*path())) from None
    except BlowUpError as err:
        raise BlowUpError(err.time, err.norm, PartialPath(*path())) from None
    _, P_nodes, margin1, margin2 = path()
    return RiccatiSolution(grid=grid, P_nodes=P_nodes, margin1_nodes=margin1,
                           margin2_nodes=margin2, kind=kind)


def _bits(x) -> bytes:
    a = np.asarray(x)
    return a.dtype.str.encode() + str(a.shape).encode() + a.tobytes()


def assert_same_solution(sol, ref):
    assert isinstance(sol, RiccatiSolution) and sol.kind == ref.kind
    assert sol.grid.same_as(ref.grid)
    for field in ("P_nodes", "margin1_nodes", "margin2_nodes"):
        assert _bits(getattr(sol, field)) == _bits(getattr(ref, field)), field


def assert_same_error(err, ref):
    assert type(err) is type(ref) and str(err) == str(ref)
    for field in ("time", "side", "margin", "norm"):
        if hasattr(ref, field):
            assert _bits(getattr(err, field)) == _bits(getattr(ref, field)), field
    for field in ("times", "P_nodes", "margin1_nodes", "margin2_nodes"):
        assert (_bits(getattr(err.partial, field))
                == _bits(getattr(ref.partial, field))), field


def assert_matches_reference(outcome, problem, config, kind):
    """outcome (a solution or an error) equals reference_solve bit for bit."""
    try:
        ref = reference_solve(problem, config, kind)
    except (RegularityError, BlowUpError) as err:
        assert_same_error(outcome, err)
    else:
        assert_same_solution(outcome, ref)


def reference_certificate(problem, config):
    """certify_A3 as the serial composition of two single solves."""
    try:
        p1 = reference_solve(problem, config, "player1")
    except (RegularityError, BlowUpError) as err:
        return CertificateReport(
            status="NOT_CERTIFIED", failing_side=1, failure_time=err.time,
            failure_reason=type(err).__name__)
    try:
        p2 = reference_solve(problem, config, "player2")
    except (RegularityError, BlowUpError) as err:
        return CertificateReport(
            status="NOT_CERTIFIED", p1=p1, failing_side=2,
            failure_time=err.time, failure_reason=type(err).__name__)
    return CertificateReport(
        status="CERTIFIED", min_margin1=float(p1.margin1_nodes.min()),
        max_margin2=float(p2.margin2_nodes.max()), p1=p1, p2=p2)


def assert_same_certificate(report, ref):
    for field in ("status", "min_margin1", "max_margin2", "failing_side",
                  "failure_time", "failure_reason"):
        assert _bits(getattr(report, field)) == _bits(getattr(ref, field)), field
    for field in ("p1", "p2"):
        sol, ref_sol = getattr(report, field), getattr(ref, field)
        if ref_sol is None:
            assert sol is None
        else:
            assert_same_solution(sol, ref_sol)


def field_at(problem, t, P, kind="game"):
    """dP/dt of one equation at one time and one P, through the solver's own
    field (no margin check)."""
    row = coefficients(problem, t).row(0)
    P = np.asarray(P, dtype=float)[None]
    R_P, S_P, _ = _assemble(row, P, problem.m1)
    groups = _Kinds.of(np.array([kind]), problem.m1, 1e-6).groups
    return _field(row, P, R_P, S_P, groups)[0]


class TestRhs:
    def test_ex4_5_rhs_at_terminal(self, ex4_5):
        # closed form P' = -P^2/2, so at P = G = -2 the slope is -2
        F = field_at(ex4_5, 1.0, [[-2.0]])
        assert F[0, 0] == pytest.approx(-2.0, abs=1e-12)

    def test_player1_rhs_is_P_squared(self, ex4_5):
        # frozen-opponent equation for player 1: P' = P^2
        F = field_at(ex4_5, 0.8, [[-2.0]], "player1")
        assert F[0, 0] == pytest.approx(4.0, abs=1e-12)

    def test_rhs_is_symmetric(self, rand_problem):
        rng = np.random.default_rng(0)
        n = rand_problem.n
        for _ in range(10):
            P = np.eye(n) * 0.1 + 0.01 * rng.normal(size=(n, n))
            P = 0.5 * (P + P.T)
            F = field_at(rand_problem, 0.3, P)
            assert np.array_equal(F, F.T)


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
            F = field_at(rand_problem, sol.grid.nodes[k], sol.P_nodes[k])
            assert np.abs(dP - F).max() <= 10.0 * dt ** 2 * scale

    def test_unknown_kind(self, ex4_5, cfg400):
        with pytest.raises(ContractViolation, match="players"):
            solve_riccati(ex4_5, cfg400, "players")

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

    @pytest.mark.parametrize("field, value", [
        ("eps_reg", np.nan), ("eps_reg", np.inf), ("eps_reg", -np.inf),
        ("blowup_cap", np.nan), ("n_steps", 200.0), ("n_steps", 2.5),
        ("n_steps", "200"), ("n_steps", True),
    ])
    def test_non_finite_config_refused(self, field, value):
        with pytest.raises(ContractViolation, match=field):
            SolverConfig(**{field: value})
        if field == "n_steps":
            with pytest.raises(ContractViolation, match=field):
                TimeGrid(1.0, value)

    def test_numpy_integer_steps_accepted(self, ex4_5):
        steps = np.int64(50)
        assert TimeGrid(1.0, steps).nodes.shape == (51,)
        sol = solve_riccati(ex4_5, SolverConfig(n_steps=steps))
        ref = solve_riccati(ex4_5, SolverConfig(n_steps=50))
        assert sol.P_nodes.tobytes() == ref.P_nodes.tobytes()


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


class TestStackedPass:
    @given(seed=st.integers(0, 2 ** 32 - 1),
           members=st.lists(st.tuples(st.sampled_from(KINDS),
                                      st.sampled_from([None, 0.5, 1e-3])),
                            min_size=1, max_size=4),
           n_steps=st.integers(2, 30),
           cap=st.sampled_from([1e8, 20.0, 4.0]))
    @settings(max_examples=150, deadline=None)
    def test_members_match_single_solves(self, seed, members, n_steps, cap):
        # members with a penalty level solve the regularized problem, as the
        # levels of a family do; a stack of one problem shares its table.
        # Each kind's members are adjacent, as in every stack the library
        # builds (see _Kinds.of)
        members = sorted(members, key=lambda member: KINDS.index(member[0]))
        problem = random_game(seed)
        problems = [problem if lam is None else regularized_problem(problem, lam)
                    for _, lam in members]
        kinds = [kind for kind, _ in members]
        config = SolverConfig(n_steps=n_steps, blowup_cap=cap)
        outcomes = _solve_stack(problems, kinds, config)
        for outcome, member, kind in zip(outcomes, problems, kinds):
            assert_matches_reference(outcome, member, config, kind)

    def test_player_blocks_not_padded(self):
        # the player-2 equation at m1 = 1, m2 = 2 changes its last bits in
        # about one game of five if its block is solved padded to m x m
        config = SolverConfig(n_steps=20)
        for seed in range(20):
            problem = random_game(seed, dims=(3, 1, 2))
            outcomes = _solve_stack([problem] * 3, KINDS, config)
            for outcome, kind in zip(outcomes, KINDS):
                assert_matches_reference(outcome, problem, config, kind)

    def test_interleaved_kinds_refused(self, ex4_5):
        kinds = ("player1", "game", "player1")
        with pytest.raises(ContractViolation, match="adjacent"):
            _Kinds.of(np.array(kinds), 1, 1e-6)
        with pytest.raises(ContractViolation, match="adjacent"):
            _solve_stack([ex4_5] * 3, kinds, SolverConfig(n_steps=10))

    def test_groups_are_slices(self):
        kinds = _Kinds.of(np.array(["game", "player1", "player1", "player2"]),
                          2, 1e-6)
        assert kinds.groups == [(slice(0, 1), slice(None)),
                                (slice(1, 3), slice(None, 2)),
                                (slice(3, 4), slice(2, None))]

    def test_no_solve_sees_a_singular_block(self):
        # at T, G = diag(-1/2, 1/2) makes R11 + D1'GD1 = I - dd'/2 and
        # R22 + D2'GD2 = -I + dd'/2, d = (1, 1), exactly singular, and so the
        # game block; the margin checks must retire every member before its
        # solve, which would return NaN with a RuntimeWarning
        c = CoefficientPath.constant
        zero, eye = np.zeros((2, 2)), np.eye(2)
        ones = np.array([[1.0, 1.0], [0.0, 0.0]])
        dyn = StateDynamics(A=c(zero), B1=c(eye), B2=c(eye), C=c(zero),
                            D1=c(ones), D2=c(ones[::-1]))
        cost = CostWeights(G=np.diag([-0.5, 0.5]), Q=c(zero), S1=c(zero),
                           S2=c(zero), R11=c(eye), R12=c(zero), R21=c(zero),
                           R22=c(-eye))
        problem = GameProblem(dynamics=dyn, cost=cost, horizon_T=1.0)
        R_P, S_P, _ = assemble(coefficients(problem, 1.0).row(0),
                               problem.cost.G, problem.m1)
        for block in (slice(None, 2), slice(2, None), slice(None)):
            with pytest.warns(RuntimeWarning):
                assert np.isnan(_solve(R_P[block, block], S_P[block])).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcomes = _solve_stack([problem] * 3, KINDS,
                                    SolverConfig(n_steps=10))
        for outcome, side in zip(outcomes, (1, 1, 2)):
            assert isinstance(outcome, RegularityError)
            assert (outcome.time, outcome.side) == (1.0, side)

    @pytest.mark.parametrize("name", ["ex4_5", "ex5_2", "certified"])
    def test_certificate_matches_serial(self, name, ex4_5, ex5_2, cfg400):
        # ex5_2: side 2 fails at T, side 1 near 0, and side 1 decides; the
        # certified draw has m1 = 1, m2 = 2, where padded blocks would show
        problem = {"ex4_5": ex4_5, "ex5_2": ex5_2,
                   "certified": random_game(34, dims=(3, 1, 2))}[name]
        report = certify_A3(problem, cfg400)
        assert report.certified == (name == "certified")
        assert_same_certificate(report, reference_certificate(problem, cfg400))
        if name == "ex4_5":
            # side 1 blows up, while side 2 alone would finish
            assert report.failure_reason == "BlowUpError"
            assert isinstance(reference_solve(problem, cfg400, "player2"),
                              RiccatiSolution)

    @pytest.mark.parametrize("name", ["ex4_5", "certified"])
    def test_equivalence_report_matches_separate_calls(self, name, ex4_5,
                                                       cfg400):
        problem = {"ex4_5": ex4_5, "certified": random_game(
            1, dims=(3, 1, 2), noise=False)}[name]
        report = equivalence_report(problem, cfg400)
        cert = certify_A3(problem, cfg400)
        assert cert.certified == (name == "certified")
        assert_same_certificate(report.certificate, cert)
        assert_same_certificate(report.certificate,
                                reference_certificate(problem, cfg400))
        sol = solve_riccati(problem, cfg400, "game")
        assert_same_solution(report.riccati, sol)
        assert_same_solution(report.riccati,
                             reference_solve(problem, cfg400, "game"))
        assert report.riccati_failure is None
        rep = representation(problem, fundamental_matrix(
            hamiltonian(problem, cfg400.n_steps), problem.horizon_T))
        cross = float(max(np.linalg.norm(a - b)
                          for a, b in zip(rep.P_rep_nodes, sol.P_nodes)))
        assert _bits(report.cross_error) == _bits(cross)

    def test_equivalence_report_records_game_failure(self, cfg400):
        # the player-2 margin is zero at T, as in ex5_2, on a noise-free game
        problem = scalar_game(B1=1.0, B2=1.0, R22=0.0)
        report = equivalence_report(problem, cfg400)
        with pytest.raises(RegularityError) as exc:
            solve_riccati(problem, cfg400, "game")
        assert report.riccati_failure == f"RegularityError: {exc.value}"
        assert report.riccati is None
        assert_same_certificate(report.certificate,
                                certify_A3(problem, cfg400))


def _overflow_game(q_samples, T, d):
    """A scalar game with sampled Q, A = B1 = B2 = C = 0 and D1 = D2 = d, for
    Q values near the largest float."""
    c = CoefficientPath.constant
    dyn = StateDynamics(A=c(0.0), B1=c(0.0), B2=c(0.0), C=c(0.0), D1=c(d),
                        D2=c(d))
    Q = CoefficientPath.sampled(np.reshape(q_samples, (-1, 1, 1)), T)
    cost = CostWeights(G=[[0.0]], Q=Q, S1=c(0.0), S2=c(0.0), R11=c(1.0),
                       R12=c(0.0), R21=c(0.0), R22=c(-1.0))
    return GameProblem(dynamics=dyn, cost=cost, horizon_T=T)


class TestSymmetrization:
    """The stacked pass skips the sym of a stage value and of a step's new
    P where it is the identity; every member must still equal
    reference_solve, which symmetrizes at every stage."""

    @pytest.mark.parametrize("seed", range(6))
    def test_inexactly_symmetric_G(self, seed):
        # G symmetric within check_symmetric's 1e-12 but not bit for bit:
        # the first step's stage values and new P must be symmetrized
        problem = random_game(seed, dims=(3, 1, 2))
        G = np.array(problem.cost.G)
        G[0, 2] = G[0, 2] * (1 + 1e-13) + 1e-14
        problem = dataclasses.replace(
            problem, cost=dataclasses.replace(problem.cost, G=G))
        assert sym(G).tobytes() != G.tobytes()
        config = SolverConfig(n_steps=20)
        for outcome, kind in zip(_solve_stack([problem] * 3, KINDS, config),
                                 KINDS):
            assert_matches_reference(outcome, problem, config, kind)

    @pytest.mark.parametrize("d", [0.0, 1.0])
    @pytest.mark.parametrize("q_samples, T, n_steps", [
        # h = 4: a stage value P - 2 k_2 reaches 0.6 max, which sym makes
        # inf; sym stays on such a grid, and without it the norms of the
        # failures read inf where the reference has nan
        ([0.3, 0.0, 0.0], 8.0, 2),
        # h = 1/4: a k_i is -inf at t = 3/8, so stage values overflow, but
        # no finite one passes max/2 and sym is skipped after step one
        ([0, 0, 0, 1.0, 0, 0, 0, 0, 0], 1.0, 4),
    ])
    def test_overflowing_stage_values(self, q_samples, T, n_steps, d):
        problem = _overflow_game(np.array(q_samples) * np.finfo(float).max,
                                 T, d)
        for cap in (1e8, np.inf):
            config = SolverConfig(n_steps=n_steps, blowup_cap=cap)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                outcomes = _solve_stack([problem] * 3, KINDS, config)
                for outcome, kind in zip(outcomes, KINDS):
                    assert isinstance(outcome, (RegularityError, BlowUpError))
                    assert outcome.partial.times.size > 1
                    assert_matches_reference(outcome, problem, config, kind)


def solve_or_error(problem, config, kind):
    """solve_riccati's solution, or the error it raised."""
    try:
        return solve_riccati(problem, config, kind)
    except (RegularityError, BlowUpError) as err:
        return err


class TestMemo:
    """Outcomes are kept per problem object and config.  A certificate
    integrates its two equations and the game's in one pass, which later
    solves of any kind reuse."""

    def test_one_pass_per_problem(self, passes, cfg400):
        problem = random_game(1, dims=(3, 1, 2), noise=False)
        cert = certify_A3(problem, cfg400)
        solve_riccati(problem, cfg400, "game")
        assert cert.certified
        assert equivalence_report(problem, cfg400).all_succeeded
        assert passes == [("player1", "player2", "game")]

    @pytest.mark.parametrize("name", ["ex4_5", "certified"])
    def test_certificate_read_at_once(self, passes, name, cfg400):
        # ex4_5: player 1's blow-up at t = 0.5 leaves player 2 and the game
        # in the pass, which integrates them to 0
        problem = (random_game(34, dims=(3, 1, 2)) if name == "certified"
                   else example_problem(name))
        assert certify_A3(problem, cfg400).certified == (name == "certified")
        solve_or_error(problem, cfg400, "game")
        solve_or_error(problem, cfg400, "player2")
        assert passes == [("player1", "player2", "game")]

    def test_config_is_part_of_the_key(self, passes, cfg400):
        problem = random_game(1, dims=(3, 1, 2), noise=False)
        cert = certify_A3(problem, cfg400)
        solve_riccati(problem, cfg400, "game")
        assert cert.certified
        sol = solve_riccati(problem, SolverConfig(n_steps=200), "game")
        assert sol.grid.n_steps == 200
        # an equal config is the same key
        solve_riccati(problem, SolverConfig(n_steps=400), "player2")
        assert passes == [("player1", "player2", "game"), ("game",)]

    @pytest.mark.parametrize("read_first", [True, False])
    @pytest.mark.parametrize("name", ["ex4_5", "ex5_2", "certified"])
    def test_outcomes_match_reference(self, name, read_first, cfg400):
        # ex4_5: player 1 blows up while player 2 and the game integrate to
        # 0 in the same pass; ex5_2: all three fail, with partial paths
        problem = (random_game(34, dims=(3, 1, 2)) if name == "certified"
                   else example_problem(name))
        ref = reference_certificate(problem, cfg400)
        cert = certify_A3(problem, cfg400)
        if read_first:
            assert_same_certificate(cert, ref)
        for _ in range(2):          # a pass, then stored outcomes again
            for kind in KINDS:
                assert_matches_reference(solve_or_error(problem, cfg400, kind),
                                         problem, cfg400, kind)
        assert_same_certificate(cert, ref)
        assert type(cert) is CertificateReport

    def test_entry_goes_with_its_problem(self, cfg400):
        # the game fails at T: a raised and caught error must not keep the
        # problem alive through its traceback, nor a certificate, read or
        # never read
        for read in (True, False):
            problem = scalar_game(B1=1.0, B2=1.0, R22=0.0)
            cert = certify_A3(problem, cfg400)
            if read:
                assert isinstance(solve_or_error(problem, cfg400, "game"),
                                  RegularityError)
                assert cert.failing_side == 2
            gc.collect()
            alive, size = weakref.ref(problem), len(riccati._MEMO)
            del problem
            gc.collect()
            assert alive() is None
            assert len(riccati._MEMO) == size - 1

    def test_stored_error_raised_afresh(self, cfg400):
        problem = scalar_game(B1=1.0, B2=1.0, R22=0.0)
        depths = []
        for _ in range(2):
            with pytest.raises(RegularityError) as exc:
                solve_riccati(problem, cfg400, "game")
            depths.append(len(traceback.extract_tb(exc.value.__traceback__)))
        assert depths[0] == depths[1]

    def test_shared_arrays_are_read_only(self, cfg400):
        problem = example_problem("ex4_5")
        sol = solve_riccati(problem, cfg400, "game")
        err = solve_or_error(problem, cfg400, "player1")
        for a in (sol.P_nodes, sol.margin1_nodes, sol.margin2_nodes,
                  err.partial.times, err.partial.P_nodes,
                  err.partial.margin1_nodes, err.partial.margin2_nodes):
            with pytest.raises(ValueError):
                a[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            err.partial.P_nodes = sol.P_nodes


_PARTIAL = PartialPath(np.linspace(0.5, 1.0, 3), np.ones((3, 2, 2)),
                       np.full(3, 0.25), np.full(3, -0.5))


class TestErrorCopies:
    @pytest.mark.parametrize("err", [
        RegularityError(0.5, 1, 1e-7, _PARTIAL), BlowUpError(0.5, 2e8, _PARTIAL),
        SingularBlockError("Phi", 1e13), RepresentationSingularError(0.25, 3e10),
        SimulationDiverged(7, 42), OracleRegularityError(3, -0.5),
    ], ids=lambda err: type(err).__name__)
    def test_copy_and_pickle_round_trip(self, err):
        for clone in (copy.copy(err), pickle.loads(pickle.dumps(err))):
            assert type(clone) is type(err)
            assert str(clone) == str(err) and clone.args == err.args
            assert vars(clone).keys() == vars(err).keys()
            for name, value in vars(err).items():
                if isinstance(value, PartialPath):
                    for f in dataclasses.fields(PartialPath):
                        assert np.array_equal(getattr(clone.partial, f.name),
                                              getattr(value, f.name))
                else:
                    assert getattr(clone, name) == value


class TestRegularization:
    def test_shift_moves_R_blocks(self, ex5_2):
        shifted = regularized_problem(ex5_2, 0.25)
        t = 0.4
        R = coefficients(shifted, t).R[0]
        assert R[0, 0] == pytest.approx(0.4 ** 2 + 0.25)
        assert R[1, 1] == pytest.approx(-1.25)

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
