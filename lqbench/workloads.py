"""The three workloads of the benchmark.

Each workload generates its inputs from the seed in ``setup``, runs one job
per ``job`` call (every library call goes through ``Tracer.call``), and
checks a finished job in ``check``, which also adds the job's computed
per-layer counts (RK4 steps, path-steps, bytes, failures) to ``counts``.
Counts are computed from input sizes and outcomes, not measured.
"""

from __future__ import annotations

import math
import os
import re
import time
from collections import namedtuple

import numpy as np

import lqgame as lg
from lqgame import cli

import gen

CONFIG = lg.SolverConfig(n_steps=200)      # Riccati solves of riccati_sweep, mc_verify
SIM_STEPS = 200                            # Euler steps of a Monte-Carlo path
N_PERTURBATIONS = 5
SIMS_PER_MC_JOB = 2 + 2 * N_PERTURBATIONS  # simulate, saddle base, deviations

RESIDUAL_TOL = 1e-8        # stationarity residual / (1 + |X|)
RICHARDSON_TOL = 1e-3      # |2 V_N - V_N/2 - value| / (1 + |value|), N = n_steps
EX4_5_TOL = 1e-8           # max |P(t) - 2/(t-2) I|
CROSS_TOL = 1e-6           # noise-free |P_rep - P_backward|


def job_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def steps_before(fail_time: float, n_steps: int, horizon: float = gen.HORIZON) -> int:
    """RK4 steps a backward solve attempted before failing at fail_time."""
    return max(0, math.ceil((horizon - fail_time) * n_steps / horizon - 1e-3))


def _failure_time(message: str) -> float:
    return float(re.search(r"at t=([-+0-9.eE]+)", message).group(1))


class Statistical(str):
    """A failed check that a correct program also fails at a known rate, such
    as a Monte-Carlo FAIL verdict: the job counts in fail_frac, but not as a
    failed operation, and the run is not reported incorrect."""


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class Workload:
    name = ""
    threads = 1        # LQGAME_THREADS for the whole process
    stop_every = 1     # the measured loop ends only after a multiple of this many jobs

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def job(self, i: int, tr):
        raise NotImplementedError

    def check(self, i: int, outcome, counts) -> list[str]:
        raise NotImplementedError

    def warm_up(self, tr) -> None:
        """Run once per setup, untimed, before the measured loop."""
        self.job(0, tr)

    def traced_extra(self, i: int, outcome, counts) -> None:
        """Measurements made only in the traced run, outside the job span."""

    def describe(self) -> dict:
        return {}


# ---------------------------------------------------------------------------
# riccati_sweep

SweepOutcome = namedtuple(
    "SweepOutcome", "kind problem cert sol cmp law X res value oracle eq doc bytes")

# one round of job classes (kind, n, m1, m2): a third noise-free (one of
# them an ex4_5-type counterexample, which has n = m1 = m2), a third with
# sampled coefficients, n spread over 1..12, m1 and m2 over 1..3
SWEEP_ROUND = (
    ("ex4_5", 2, 2, 2), ("sampled", 1, 1, 3), ("stochastic", 5, 3, 2),
    ("noise_free", 10, 2, 1), ("sampled", 12, 3, 1), ("stochastic", 8, 1, 2),
)
SWEEP_POOL = 60            # distinct problem files; later jobs reuse them in order


class RiccatiSweep(Workload):
    """Serial certify -> solve -> synthesize -> oracle -> file round trip,
    the steps of ``lqgame pipeline`` without Monte-Carlo."""

    name = "riccati_sweep"
    stop_every = len(SWEEP_ROUND)

    def setup(self) -> None:
        self.files, self.kinds = [], []
        for k in range(SWEEP_POOL):
            rng = np.random.default_rng([self.seed, k])
            kind, n, m1, m2 = SWEEP_ROUND[k % len(SWEEP_ROUND)]
            if kind == "ex4_5":
                problem = gen.ex4_5_type(rng, n)
            else:
                problem = gen.random_game(rng, n, m1, m2,
                                          noise=kind != "noise_free",
                                          sampled=kind == "sampled")
            path = os.path.join(self.workdir, f"problem_{k:03d}.json")
            cli.save_problem(problem, path)
            self.files.append(path)
            self.kinds.append(kind)
        self.solution_file = os.path.join(self.workdir, "solution.json")

    def job(self, i: int, tr) -> SweepOutcome:
        k = i % SWEEP_POOL
        problem = tr.call("cli.load_problem", cli.load_problem, self.files[k])
        cert = tr.call("riccati.certify_A3", lg.certify_A3, problem, CONFIG)
        sol = tr.call("riccati.solve_riccati", lg.solve_riccati, problem,
                      CONFIG, "game")
        cmp = None
        if cert.certified:
            cmp = tr.call("riccati.comparison_check", lg.comparison_check,
                          sol, cert.p1, cert.p2)
        law = tr.call("synthesis.feedback_gain", lg.feedback_gain, problem, sol)
        x = np.ones(problem.n)
        value = tr.call("synthesis.game_value", lg.game_value, sol, x)
        system = tr.call("synthesis.closed_loop", lg.closed_loop, problem, law)
        X = tr.call("synthesis.mean_state_path", lg.mean_state_path, system, x)
        res = tr.call("synthesis.fbsde_residual", lg.fbsde_residual,
                      problem, sol, law, X)
        oracle, _ = tr.call("evaluation.discrete_oracle", lg.discrete_oracle,
                            problem, x, CONFIG.n_steps)
        eq = None
        if problem.is_deterministic():
            eq = tr.call("deterministic.equivalence_report",
                         lg.equivalence_report, problem, CONFIG)
        tr.call("cli.save_solution", cli.save_solution, self.solution_file,
                sol.grid, sol.P_nodes, sol.margin1_nodes, sol.margin2_nodes,
                theta_nodes=law.theta_nodes, config=CONFIG, seed=self.seed)
        doc = tr.call("cli.load_solution", cli.load_solution, self.solution_file)
        return SweepOutcome(self.kinds[k], problem, cert, sol, cmp, law, X, res, value,
                            oracle, eq, doc, os.path.getsize(self.solution_file))

    def check(self, i: int, o: SweepOutcome, counts) -> list[str]:
        n_steps = CONFIG.n_steps
        cert = o.cert
        if cert.certified:
            cert_steps, useful = 2 * n_steps, 2 * n_steps
        else:
            counts["riccati.solve_failures"] += 1
            partial = steps_before(cert.failure_time, n_steps)
            cert_steps = partial if cert.failing_side == 1 else n_steps + partial
            useful = 0
        counts["riccati.steps"] += cert_steps + n_steps
        counts["riccati.useful_steps"] += useful + n_steps
        counts["synthesis.nodes"] += 4 * (n_steps + 1)
        counts["cli.bytes_written"] += o.bytes
        if o.eq is not None:
            # equivalence_report re-runs the certificate and the game solve
            counts["deterministic.riccati_steps"] += cert_steps + n_steps
            counts["deterministic.rep_failures"] += o.eq.rep is None

        failed = []
        if o.kind == "ex4_5":
            if cert.certified or cert.failing_side != 1:
                failed.append(f"ex4_5 not refused on side 1 ({cert.status}, "
                              f"side {cert.failing_side})")
            t = o.sol.grid.nodes
            exact = (2.0 / (t - 2.0))[:, None, None] * np.eye(o.sol.P_nodes.shape[1])
            err = float(np.abs(o.sol.P_nodes - exact).max())
            if err > EX4_5_TOL:
                failed.append(f"ex4_5 |P - 2/(t-2)| = {err:.2e}")
        elif not (cert.certified and o.cmp.passed):
            failed.append(f"sandwich: {cert.status}, "
                          f"{o.cmp.worst_margins() if o.cmp else None}")
        resid = float((o.res / (1.0 + np.linalg.norm(o.X, axis=1))).max())
        if not resid <= RESIDUAL_TOL:
            failed.append(f"FBSDE residual {resid:.2e}")
        # the oracle converges at first order, so its Richardson
        # extrapolation from N and N/2 steps must meet the game value
        coarse, _ = lg.discrete_oracle(o.problem, np.ones(o.problem.n), n_steps // 2)
        miss = abs(2.0 * o.oracle - coarse - o.value) / (1.0 + abs(o.value))
        if not miss <= RICHARDSON_TOL:
            failed.append(f"oracle extrapolation misses value {o.value:.6g} "
                          f"by {miss:.2e} (gap at N {abs(o.oracle - o.value):.2e})")
        if o.eq is not None and not (o.eq.cross_error is not None
                                     and o.eq.cross_error <= CROSS_TOL):
            failed.append(f"noise-free cross error {o.eq.cross_error} "
                          f"({o.eq.rep_failure})")
        doc = o.doc
        if not (same_bits(doc["P_nodes"], o.sol.P_nodes)
                and same_bits(doc["margins"]["margin1"], o.sol.margin1_nodes)
                and same_bits(doc["margins"]["margin2"], o.sol.margin2_nodes)
                and same_bits(doc["theta_nodes"], o.law.theta_nodes)
                and doc["grid"] == {"horizon": o.sol.grid.horizon_T,
                                    "n_steps": o.sol.grid.n_steps}):
            failed.append("solution file does not round-trip bit-exactly")
        return failed

    def describe(self) -> dict:
        return {"n_steps": CONFIG.n_steps, "round_kind_n_m1_m2": SWEEP_ROUND,
                "problem_files": SWEEP_POOL}


# ---------------------------------------------------------------------------
# mc_verify

McOutcome = namedtuple("McOutcome", "game runs")   # runs: [(paths, est, report)]

MC_GAMES = ((2, 1, 1),) * 3         # (n, m1, m2) of the games solved in setup
MC_SIZES = (("small", 64),           # computed working set < 2 MiB (one core's L2)
            ("large", 10_000))       # the CLI default


def mc_bytes(p: int, d: int) -> int:
    """Bytes of ensemble and quadrature arrays one verification computes:
    per simulation the state/control histories, per cost the stacked
    quadratic form operands and integrand, plus two Brownian draws."""
    s = SIM_STEPS
    ensembles = SIMS_PER_MC_JOB * (s + 1) * p * d
    quadrature = SIMS_PER_MC_JOB * (s + 1) * p * (d + 1)
    return 8 * (ensembles + quadrature + 2 * s * p)


def mc_working_set(p: int, d: int) -> int:
    """Bytes live while verify_saddle evaluates one deviation: the retained
    base ensemble and costs, the deviation's histories and its quadrature."""
    s = SIM_STEPS
    return 8 * (s * p + (s + 1) * p * d + p + (s + 1) * p * d
                + (s + 1) * p * (d + 1))


class McVerify(Workload):
    """simulate + estimate_cost + verify_saddle on games solved in setup.
    Each job verifies its game at the small, then at the CLI-default
    ensemble size, each with its own seed."""

    name = "mc_verify"

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 0])
        self.games = []
        for dims in MC_GAMES:
            while True:
                problem = gen.random_game(rng, *dims)
                if lg.certify_A3(problem, CONFIG).certified:
                    break
            sol = lg.solve_riccati(problem, CONFIG, "game")
            law = lg.feedback_gain(problem, sol)
            self.games.append((problem, sol, law))
        self.grid = lg.TimeGrid(gen.HORIZON, SIM_STEPS)

    def warm_up(self, tr) -> None:
        self.job(0, tr, sizes=MC_SIZES[:1])

    def job(self, i: int, tr, sizes=MC_SIZES) -> McOutcome:
        g = i % len(self.games)
        problem, sol, law = self.games[g]
        x = np.ones(problem.n)
        u1 = lg.ControlLaw.from_feedback(law, 1, self.grid)
        u2 = lg.ControlLaw.from_feedback(law, 2, self.grid)
        runs = []
        for k, (size, paths) in enumerate(sizes):
            seed = job_seed(self.seed, len(MC_SIZES) * i + k)
            with tr.tagged(size):
                ens = tr.call("evaluation.simulate", lg.simulate, problem, u1,
                              u2, x, self.grid, paths, seed)
                est = tr.call("evaluation.estimate_cost", lg.estimate_cost,
                              problem, ens)
                del ens
                report = tr.call("evaluation.verify_saddle", lg.verify_saddle,
                                 problem, sol, law, x, N_PERTURBATIONS, paths,
                                 seed, sim_steps=SIM_STEPS)
            runs.append((size, paths, est, report))
        return McOutcome(g, runs)

    def check(self, i: int, o: McOutcome, counts) -> list[str]:
        problem = self.games[o.game][0]
        d = problem.n + problem.m1 + problem.m2
        failed = []
        for size, paths, est, rep in o.runs:
            counts[f"evaluation.path_steps.{size}"] += SIMS_PER_MC_JOB * paths * SIM_STEPS
            counts["evaluation.bytes_computed"] += mc_bytes(paths, d)
            if rep.verdict != "PASS":
                counts["evaluation.saddle_fail"] += 1
                z = (rep.value_mc.mean - rep.value_analytic) / rep.value_mc.std_error
                failed.append(Statistical(
                    f"saddle verdict {rep.verdict} ({size}, value z={z:.2f})"))
            # the simulation and the saddle base share the seed, so common
            # random numbers make the two estimates identical
            if not (est.mean == rep.value_mc.mean
                    and est.std_error == rep.value_mc.std_error
                    and est.n_paths == paths):
                failed.append(f"{size}: estimate_cost disagrees with the saddle base")
            if not (len(rep.gaps_player1) == len(rep.gaps_player2) == N_PERTURBATIONS):
                failed.append(f"{size}: wrong number of perturbation gaps")
        return failed

    def describe(self) -> dict:
        out = {"games_n_m1_m2": MC_GAMES, "n_steps": CONFIG.n_steps,
               "sim_steps": SIM_STEPS, "perturbations": N_PERTURBATIONS,
               "paths": dict(MC_SIZES)}
        for size, p in MC_SIZES:
            out[f"working_set_bytes_{size}"] = [
                mc_working_set(p, sum(dims)) for dims in MC_GAMES]
        return out


# ---------------------------------------------------------------------------
# lambda_family

FamilyOutcome = namedtuple("FamilyOutcome", "problem family")

FAMILY_ROUND = ("ex5_2", "ex3_2", "stochastic")
FAMILY_POOL = 36
# fewer steps than CONFIG, so that a 30-second run holds enough sweeps for a
# tail latency with ten samples beyond it
FAMILY_CONFIG = lg.SolverConfig(n_steps=100)
LAMBDAS = tuple(2.0 ** -k for k in range(8))


class LambdaFamily(Workload):
    """One threaded solve_lambda_family sweep per job over time-varying
    games: perturbed ex5_2 / ex3_2 instances and sampled stochastic games."""

    name = "lambda_family"
    threads = 2
    stop_every = len(FAMILY_ROUND)

    def setup(self) -> None:
        self.problems = []
        for k in range(FAMILY_POOL):
            rng = np.random.default_rng([self.seed, k])
            kind = FAMILY_ROUND[k % len(FAMILY_ROUND)]
            if kind == "ex5_2":
                self.problems.append(gen.perturbed_ex5_2(rng))
            elif kind == "ex3_2":
                self.problems.append(gen.perturbed_ex3_2(rng))
            else:
                self.problems.append(gen.random_game(rng, 2, 1, 1, sampled=True))

    def job(self, i: int, tr) -> FamilyOutcome:
        problem = self.problems[i % FAMILY_POOL]
        family = tr.call("riccati.solve_lambda_family", lg.solve_lambda_family,
                         problem, LAMBDAS, FAMILY_CONFIG)
        return FamilyOutcome(problem, family)

    def check(self, i: int, o: FamilyOutcome, counts) -> list[str]:
        fam = o.family
        n_steps = FAMILY_CONFIG.n_steps
        for sol, failure in zip(fam.solutions, fam.failures):
            if sol is not None:
                counts["riccati.steps"] += n_steps
                counts["riccati.useful_steps"] += n_steps
            else:
                counts["riccati.steps"] += steps_before(_failure_time(failure), n_steps)
                counts["riccati.solve_failures"] += 1
        failed = []
        if list(fam.lambdas) != list(LAMBDAS) or len(fam.solutions) != len(LAMBDAS):
            return [f"family has levels {fam.lambdas}"]
        # compare one level, preferring a solved one, with a serial solve
        order = [(i + j) % len(LAMBDAS) for j in range(len(LAMBDAS))]
        j = next((j for j in order if fam.solutions[j] is not None), order[0])
        reg = lg.regularized_problem(o.problem, LAMBDAS[j])
        try:
            ref = lg.solve_riccati(reg, FAMILY_CONFIG, "game")
        except (lg.RegularityError, lg.BlowUpError) as err:
            if fam.failures[j] != f"{type(err).__name__}: {err}":
                failed.append(f"level {j}: failure {fam.failures[j]!r} vs serial {err}")
            return failed
        sol = fam.solutions[j]
        if sol is None or not (same_bits(sol.P_nodes, ref.P_nodes)
                               and same_bits(sol.margin1_nodes, ref.margin1_nodes)
                               and same_bits(sol.margin2_nodes, ref.margin2_nodes)
                               and same_bits(fam.P0_values[j], ref.P0())):
            failed.append(f"level {j} differs from a serial solve")
        return failed

    def traced_extra(self, i: int, o: FamilyOutcome, counts) -> None:
        os.environ["LQGAME_THREADS"] = "1"
        try:
            start = time.perf_counter()
            lg.solve_lambda_family(o.problem, LAMBDAS, FAMILY_CONFIG)
            counts["riccati.family_serial_s"] += time.perf_counter() - start
        finally:
            os.environ["LQGAME_THREADS"] = str(self.threads)

    def describe(self) -> dict:
        return {"round": FAMILY_ROUND, "lambdas": LAMBDAS,
                "n_steps": FAMILY_CONFIG.n_steps, "threads": self.threads,
                "stochastic_game_n_m1_m2": (2, 1, 1)}


WORKLOADS = {w.name: w for w in (RiccatiSweep, McVerify, LambdaFamily)}
