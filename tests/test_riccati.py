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
    example_problem, fundamental_matrix, hamiltonian, random_certified_problem,
    regularized_problem, representation, riccati, solve_lambda_family,
    solve_riccati, sym,
)
from lqgame.core import _assemble, _assembly_rows, _solve
from lqgame.riccati import KINDS, _field, _Kinds, _solve_stack
from conftest import control_blocks, random_game, scalar_game, table_row


def reference_solve(problem, config, kind):
    """The backward RK4 loop for one equation alone, stage by stage: the
    reference that every member of a stacked pass must equal bit for bit,
    error, failure time, side, margin and partial path included, and each
    node's control rows.  Its quadratic block is core._assemble's, which
    TestAssembleBlocks checks against the textbook field; its Schur
    complement pads the kind's control block to the whole one, with zero
    rows of S_k and identity R_k outside."""
    grid = TimeGrid(problem.horizon_T, config.n_steps)
    nodes, h, eps, m1 = grid.nodes, grid.dt, config.eps_reg, problem.m1
    n, m = problem.n, problem.m1 + problem.m2
    times = np.empty(2 * grid.n_steps + 1)
    times[0::2] = nodes
    times[1::2] = 0.5 * (nodes[:-1] + nodes[1:])
    table = coefficients(problem, times)
    own = {"game": np.full(m, True), "player1": np.arange(m) < m1,
           "player2": np.arange(m) >= m1}[kind]

    def check(t, margins):
        margin1, margin2 = margins
        if kind in ("game", "player1") and margin1 <= eps:
            raise RegularityError(t, 1, margin1)
        if kind in ("game", "player2") and margin2 >= -eps:
            raise RegularityError(t, 2, margin2)

    def assemble(row, P):
        return _assemble(_assembly_rows(row), P, m1)

    def field(big):
        # [S_k R_k] is the kind's part of [S_P R_P] in [0 I]; both blocks
        # are read in place, as strides can change the bits of a product
        lower = np.hstack((np.zeros((m, n)), np.eye(m)))
        part = np.ix_(own, np.concatenate((np.full(n, True), own)))
        lower[part] = big[n:][part]
        S_k, R_k = lower[:, :n], lower[:, n:]
        return sym(S_k.T @ np.linalg.solve(R_k, S_k) - big[:n, :n])

    def rhs(row, t, P):
        big, margins = assemble(row, P)
        check(t, margins)
        return field(big)

    P = np.array(problem.cost.G)
    big, margins = assemble(table_row(table, 2 * grid.n_steps), P)
    done = [(nodes[-1], P, margins, big[n:])]

    def path():
        t, Ps, ms, rows = zip(*done[::-1])
        return (np.array(t), np.array(Ps), np.array([a for a, _ in ms]),
                np.array([b for _, b in ms]), np.array(rows))

    try:
        check(nodes[-1], margins)
        for k in range(grid.n_steps, 0, -1):
            t0 = nodes[k - 1]
            mid = table_row(table, 2 * k - 1)
            prev = table_row(table, 2 * k - 2)
            k1 = field(big)
            k2 = rhs(mid, times[2 * k - 1], sym(P - 0.5 * h * k1))
            k3 = rhs(mid, times[2 * k - 1], sym(P - 0.5 * h * k2))
            k4 = rhs(prev, t0, sym(P - h * k3))
            P = sym(P - (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
            norm = float(np.linalg.norm(P))
            if not np.isfinite(norm) or norm > config.blowup_cap:
                raise BlowUpError(t0, norm)
            big, margins = assemble(prev, P)
            check(t0, margins)
            done.append((t0, P, margins, big[n:]))
    except RegularityError as err:
        raise RegularityError(err.time, err.side, err.margin,
                              PartialPath(*path()[:4])) from None
    except BlowUpError as err:
        raise BlowUpError(err.time, err.norm,
                          PartialPath(*path()[:4])) from None
    _, P_nodes, margin1, margin2, rows = path()
    return RiccatiSolution(grid=grid, P_nodes=P_nodes, margin1_nodes=margin1,
                           margin2_nodes=margin2, control_nodes=rows,
                           kind=kind, m1=m1)


def _bits(x) -> bytes:
    a = np.asarray(x)
    return a.dtype.str.encode() + str(a.shape).encode() + a.tobytes()


def assert_same_solution(sol, ref):
    assert isinstance(sol, RiccatiSolution) and sol.kind == ref.kind
    assert sol.m1 == ref.m1
    assert sol.fit == ref.fit
    for field in ("P_nodes", "margin1_nodes", "margin2_nodes",
                  "control_nodes"):
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
    row = table_row(coefficients(problem, t), 0)
    P = np.asarray(P, dtype=float)[None]
    big, _ = _assemble(_assembly_rows(row), P, problem.m1)
    kinds = _Kinds.of(np.array([kind]), problem.n, problem.m1,
                      problem.m1 + problem.m2, 1e-6)
    return _field(big, kinds)[0]


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

    def test_comparison_refuses_wrong_kinds(self, rand_problem, cfg400):
        # (game, game, game) would pass and (p1, game, p2) blame the game
        report = certify_A3(rand_problem, cfg400)
        game, p1, p2 = solve_riccati(rand_problem, cfg400), report.p1, report.p2
        for args, name in (((game, game, game), "p1"), ((p1, game, p2), "game"),
                           ((game, p1, p1), "p2"), ((game, p2, p1), "p1")):
            with pytest.raises(ContractViolation, match=f"argument {name} "):
                comparison_check(*args)

    def test_comparison_refuses_another_n(self, rand_problem):
        # rand_problem has n = 4, the certified draw n = 3
        config = SolverConfig(n_steps=40)
        small = random_game(34, dims=(3, 1, 2))
        four, three = (certify_A3(p, config) for p in (rand_problem, small))
        assert four.certified and three.certified
        game = solve_riccati(rand_problem, config)
        for args, name, got, want in (
                ((game, three.p1, four.p2), "p1", "3, 1, 2", "4, 2, 2"),
                ((game, four.p1, three.p2), "p2", "3, 1, 2", "4, 2, 2"),
                ((solve_riccati(small, config), four.p1, four.p2), "p1",
                 "4, 2, 2", "3, 1, 2")):
            with pytest.raises(ContractViolation,
                               match=rf"^{name} has \(n, m1, m2, T, n_steps\) "
                                     rf"= \({got}, 1.0, 40\), expected "
                                     rf"\({want}, 1.0, 40\)$"):
                comparison_check(*args)


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
        # Kinds come in any order
        problem = random_game(seed)
        problems = [problem if lam is None else regularized_problem(problem, lam)
                    for _, lam in members]
        kinds = [kind for kind, _ in members]
        config = SolverConfig(n_steps=n_steps, blowup_cap=cap)
        outcomes = _solve_stack(problems, kinds, config)
        for outcome, member, kind in zip(outcomes, problems, kinds):
            assert_matches_reference(outcome, member, config, kind)

    def test_padded_player_blocks_match_single_solves(self):
        # at m1 = 1, m2 = 2 each player's block is padded to the whole 3 x 3
        # control block, with the other player's rows zero and the identity
        config = SolverConfig(n_steps=20)
        for seed in range(20):
            problem = random_game(seed, dims=(3, 1, 2))
            outcomes = _solve_stack([problem] * 3, KINDS, config)
            for outcome, kind in zip(outcomes, KINDS):
                assert_matches_reference(outcome, problem, config, kind)

    @pytest.mark.parametrize("seed", [1, 15, 34])
    def test_interleaved_kinds_match_single_solves(self, seed):
        # no kind's members need to be adjacent: each member's blocks are
        # padded in place, so the stack has no per-kind slices.  Seed 15's
        # player-1 members fail at t = 0.425 and leave the stack
        kinds = ("player1", "game", "player1", "player2")
        problem = random_game(seed, dims=(3, 1, 2))
        config = SolverConfig(n_steps=40)
        outcomes = _solve_stack([problem] * 4, kinds, config)
        for outcome, kind in zip(outcomes, kinds):
            alone, = _solve_stack([problem], [kind], config)
            if isinstance(alone, RiccatiSolution):
                assert_same_solution(outcome, alone)
            else:
                assert_same_error(outcome, alone)
            assert_matches_reference(outcome, problem, config, kind)

    @pytest.mark.parametrize("seed", [9, 11])
    def test_margins_are_the_stored_rows_extremes(self, seed):
        # every kind keeps the whole control rows [S_P R_P] of each node,
        # and its margins are the extreme eigenvalues of their player
        # blocks; both draws are certified, 9 sampled and 11 constant
        problem = random_game(seed, dims=(3, 2, 2))
        n, m1 = problem.n, problem.m1
        for sol in _solve_stack([problem] * 3, KINDS, SolverConfig(n_steps=40)):
            assert sol.control_nodes.shape == (41, 4, 7)
            R_P = sol.control_nodes[..., n:]
            for margin, block, pick in ((sol.margin1_nodes, slice(None, m1), 0),
                                        (sol.margin2_nodes, slice(m1, None), -1)):
                extreme = np.linalg.eigvalsh(R_P[:, block, block])[:, pick]
                assert _bits(extreme) == _bits(margin)

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
        R_P, S_P, _ = control_blocks(
            table_row(coefficients(problem, 1.0), 0), problem.cost.G,
            problem.m1)
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
                  sol.control_nodes, err.partial.times, err.partial.P_nodes,
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

    @pytest.mark.parametrize("level", [np.nan, np.inf, -np.inf])
    def test_non_finite_levels_refused(self, ex4_5, cfg400, level):
        # refused by name, not later as a non-finite coefficient path
        for levels in ([level], [0.5, level]):
            with pytest.raises(ContractViolation, match="penalty levels"):
                solve_lambda_family(ex4_5, levels, cfg400)
        with pytest.raises(ContractViolation, match="penalty level"):
            regularized_problem(ex4_5, level)

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
                         (sol.margin2_nodes, ref.margin2_nodes),
                         (sol.control_nodes, ref.control_nodes)):
                assert a.tobytes() == b.tobytes()


def _negated(path):
    return CoefficientPath(path.kind, -path.values, path.span)


def swapped(problem):
    """The same game seen from the other side: the players swapped and the
    cost negated (B1 <-> B2, D1 <-> D2, G, Q -> -G, -Q, S1' = -S2,
    S2' = -S1, R11' = -R22, R22' = -R11, R12' = -R21)."""
    d, c = problem.dynamics, problem.cost
    dyn = StateDynamics(A=d.A, B1=d.B2, B2=d.B1, C=d.C, D1=d.D2, D2=d.D1)
    cost = CostWeights(
        G=-c.G, Q=_negated(c.Q), S1=_negated(c.S2), S2=_negated(c.S1),
        R11=_negated(c.R22), R12=_negated(c.R21), R21=_negated(c.R12),
        R22=_negated(c.R11))
    return GameProblem(dynamics=dyn, cost=cost, horizon_T=problem.horizon_T)


class TestSwapIdentity:
    """Swapping the players and negating the cost gives -P, and each
    companion is minus the swapped game's other one.  The swapped pass puts
    each player's padded block in the other rows, so its solves pivot in
    another order and the two agree to rounding, not bit for bit: by at
    most one unit of eps (1 + max |P|) per stage, 4 N over N steps."""

    @pytest.mark.parametrize("name", ["rg1", "rg11", "rg14", "rg34", "rcp3",
                                      "rcp7"])
    def test_solutions_mirror(self, name):
        # random_game draws at m1 = 1, m2 = 2, constant (11, 34) and sampled
        # (1, 14), and random_certified_problem draws, all certified
        seed = int(name[3:] if name.startswith("rcp") else name[2:])
        problem = (random_certified_problem(seed) if name.startswith("rcp")
                   else random_game(seed, dims=(3, 1, 2)))
        mirror = swapped(problem)
        config = SolverConfig(n_steps=200)
        assert certify_A3(problem, config).certified
        assert certify_A3(mirror, config).certified
        for kind, other in (("game", "game"), ("player1", "player2"),
                            ("player2", "player1")):
            sol = solve_riccati(problem, config, kind)
            twin = solve_riccati(mirror, config, other)
            tol = (4 * config.n_steps * np.finfo(float).eps
                   * (1 + np.abs(sol.P_nodes).max()))
            assert np.abs(sol.P_nodes + twin.P_nodes).max() <= tol, kind
            if kind == "game":
                assert np.abs(sol.margin1_nodes
                              + twin.margin2_nodes).max() <= tol
                assert np.abs(sol.margin2_nodes
                              + twin.margin1_nodes).max() <= tol

    def test_ex4_5_refused_on_the_other_side(self, ex4_5, cfg400):
        assert certify_A3(ex4_5, cfg400).failing_side == 1
        assert certify_A3(swapped(ex4_5), cfg400).failing_side == 2
        sol = solve_riccati(ex4_5, cfg400)
        twin = solve_riccati(swapped(ex4_5), cfg400)
        tol = (4 * cfg400.n_steps * np.finfo(float).eps
               * (1 + np.abs(sol.P_nodes).max()))
        assert np.abs(sol.P_nodes + twin.P_nodes).max() <= tol
