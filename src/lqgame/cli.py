"""Command-line front end: problem-file loading, the example library,
certify/solve/synthesize/verify orchestration, and report emission.

Exit codes: 0 success, 2 certificate refused or unreadable/malformed input
(problem file or flag), 3 Riccati regularity or blow-up failure, 4 saddle
verification failed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from .core import (
    CoefficientPath, ContractViolation, CostWeights, GameProblem, LqgError,
    StateDynamics, TimeGrid,
)
from .deterministic import equivalence_report
from .evaluation import (
    ControlLaw, estimate_cost, falsify_lower_value, simulate, verify_saddle,
)
from .fixtures import EXAMPLE_NAMES, example_problem
from .riccati import (
    BlowUpError, RegularityError, SolverConfig, certify_A3,
    solve_lambda_family, solve_riccati,
)
from .synthesis import feedback_gain, game_value

EXIT_OK = 0
EXIT_NOT_CERTIFIED = 2
EXIT_REGULARITY = 3
EXIT_VERIFY_FAIL = 4


class ProblemFormatError(LqgError):
    """A problem file failed to parse or validate; message names the field."""


# ---------------------------------------------------------------------------
# problem files


def _coeff_from_json(node, field: str) -> CoefficientPath:
    if not isinstance(node, dict):
        raise ProblemFormatError(f"{field}: expected an object")
    if "constant" in node:
        try:
            return CoefficientPath.constant(np.array(node["constant"], dtype=float))
        except (ValueError, ContractViolation) as err:
            raise ProblemFormatError(f"{field}: {err}") from None
    if "samples" in node:
        s = node["samples"]
        try:
            times = np.array(s["times"], dtype=float)
            values = np.array(s["values"], dtype=float)
        except (KeyError, TypeError, ValueError) as err:
            raise ProblemFormatError(f"{field}: bad samples ({err})") from None
        if times.ndim != 1 or times.shape[0] < 2 or times.shape[0] != values.shape[0]:
            raise ProblemFormatError(f"{field}: times and values disagree")
        uniform = np.linspace(times[0], times[-1], times.shape[0])
        if times[0] != 0.0 or not np.allclose(times, uniform, rtol=0, atol=1e-12):
            raise ProblemFormatError(f"{field}: sample times must be uniform from 0")
        try:
            return CoefficientPath.sampled(values, float(times[-1]))
        except ContractViolation as err:
            raise ProblemFormatError(f"{field}: {err}") from None
    raise ProblemFormatError(f"{field}: need 'constant' or 'samples'")


def _parse(field: str, convert, value):
    """Convert one piece of outside input; a failure, or a value that is not
    finite, names the field."""
    try:
        out = convert(value)
        finite = np.isfinite(np.asarray(out, dtype=float)).all()
    except (TypeError, ValueError, OverflowError) as err:
        raise ProblemFormatError(f"{field}: {err}") from None
    if not finite:
        raise ProblemFormatError(f"{field}: values must be finite")
    return out


def load_problem(path: str) -> GameProblem:
    """Read and validate a JSON problem file.

    Errors carry the offending field path (e.g. "cost.R21")."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as err:
        raise ProblemFormatError(f"{path}: not valid JSON ({err})") from None
    except (OSError, UnicodeDecodeError) as err:
        raise ProblemFormatError(f"--problem: cannot read {path} ({err})") from None
    if not isinstance(doc, dict):
        raise ProblemFormatError(f"{path}: expected a JSON object")
    for key in ("horizon", "dims", "dynamics", "cost"):
        if key not in doc:
            raise ProblemFormatError(f"missing top-level key {key!r}")
    for key in ("dims", "dynamics", "cost"):
        if not isinstance(doc[key], dict):
            raise ProblemFormatError(f"{key}: expected an object")

    dyn_doc, cost_doc = doc["dynamics"], doc["cost"]
    dyn_paths = {}
    for name in ("A", "B1", "B2", "C", "D1", "D2"):
        if name not in dyn_doc:
            raise ProblemFormatError(f"dynamics.{name}: missing")
        dyn_paths[name] = _coeff_from_json(dyn_doc[name], f"dynamics.{name}")
    cost_paths = {}
    for name in ("Q", "S1", "S2", "R11", "R12", "R21", "R22"):
        if name not in cost_doc:
            raise ProblemFormatError(f"cost.{name}: missing")
        cost_paths[name] = _coeff_from_json(cost_doc[name], f"cost.{name}")
    if "G" not in cost_doc:
        raise ProblemFormatError("cost.G: missing")
    G = _parse("cost.G", lambda v: np.array(v, dtype=float), cost_doc["G"])

    try:
        dynamics = StateDynamics(**dyn_paths)
    except ContractViolation as err:
        raise ProblemFormatError(str(err)) from None
    try:
        cost = CostWeights(G=G, **cost_paths)
    except ContractViolation as err:
        msg = str(err)
        if "R21" in msg or "R12" in msg:
            raise ProblemFormatError(f"cost.R21: {msg}") from None
        raise ProblemFormatError(f"cost: {msg}") from None
    horizon = _parse("horizon", float, doc["horizon"])
    try:
        problem = GameProblem(dynamics=dynamics, cost=cost, horizon_T=horizon)
    except ContractViolation as err:
        raise ProblemFormatError(str(err)) from None

    dims = doc["dims"]
    declared = tuple(_parse(f"dims.{key}", int, dims.get(key, -1))
                     for key in ("n", "m1", "m2"))
    if declared != (problem.n, problem.m1, problem.m2):
        raise ProblemFormatError(
            f"dims: declared {declared}, coefficients imply "
            f"{(problem.n, problem.m1, problem.m2)}")
    return problem


def _coeff_to_json(path: CoefficientPath):
    if path.kind == "constant":
        return {"constant": path.values.tolist()}
    k = path.values.shape[0]
    return {"samples": {"times": np.linspace(0.0, path.span, k).tolist(),
                        "values": path.values.tolist()}}


def save_problem(problem: GameProblem, path: str) -> None:
    doc = {
        "horizon": problem.horizon_T,
        "dims": {"n": problem.n, "m1": problem.m1, "m2": problem.m2},
        "dynamics": {name: _coeff_to_json(getattr(problem.dynamics, name))
                     for name in ("A", "B1", "B2", "C", "D1", "D2")},
        "cost": {"G": problem.cost.G.tolist(),
                 **{name: _coeff_to_json(getattr(problem.cost, name))
                    for name in ("Q", "S1", "S2", "R11", "R12", "R21", "R22")}},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# solution files and reports


def save_solution(path: str, grid: TimeGrid, P_nodes, margin1, margin2,
                  theta_nodes=None, config: SolverConfig | None = None,
                  seed: int | None = None,
                  timings: dict | None = None) -> None:
    """Write a solution file.  Matrices round-trip bit-exactly because JSON
    floats are emitted with shortest-round-trip precision."""
    meta = {"version": f"lqgame-{__version__}", "timings": timings or {}}
    if config is not None:
        meta["config"] = {"eps_reg": config.eps_reg,
                          "blowup_cap": config.blowup_cap,
                          "n_steps": config.n_steps}
    if seed is not None:
        meta["seed"] = seed
    doc = {
        "grid": {"horizon": grid.horizon_T, "n_steps": grid.n_steps},
        "P_nodes": np.asarray(P_nodes).tolist(),
        "margins": {"margin1": np.asarray(margin1).tolist(),
                    "margin2": np.asarray(margin2).tolist()},
        "theta_nodes": None if theta_nodes is None
        else np.asarray(theta_nodes).tolist(),
        "meta": meta,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_solution(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["P_nodes"] = np.array(doc["P_nodes"], dtype=float)
    doc["margins"] = {k: np.array(v, dtype=float)
                      for k, v in doc["margins"].items()}
    if doc.get("theta_nodes") is not None:
        doc["theta_nodes"] = np.array(doc["theta_nodes"], dtype=float)
    return doc


def save_plot_data(path: str, grid: TimeGrid, P_nodes, margin1, margin2) -> None:
    """CSV with columns t, P entries in row-major order, margins."""
    P_nodes = np.asarray(P_nodes)
    n = P_nodes.shape[-1]
    header = ["t"] + [f"P_{i}_{j}" for i in range(n) for j in range(n)]
    header += ["margin1", "margin2"]
    rows = np.column_stack([grid.nodes, P_nodes.reshape(len(grid.nodes), -1),
                            np.asarray(margin1), np.asarray(margin2)])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _header(args, config: SolverConfig) -> str:
    return (f"# lqgame-{__version__} seed={getattr(args, 'seed', None)} "
            f"n_steps={config.n_steps} eps_reg={config.eps_reg:g}")


# ---------------------------------------------------------------------------
# commands


def _config(args) -> SolverConfig:
    try:
        return SolverConfig(eps_reg=args.eps_reg, n_steps=args.steps)
    except ContractViolation as err:
        # the message names the field of --eps-reg or --steps
        raise ProblemFormatError(str(err)) from None


def _get_problem(args) -> GameProblem:
    if args.problem is None:
        raise ProblemFormatError("--problem is required for this command")
    return load_problem(args.problem)


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def _x_vector(args, n: int) -> np.ndarray:
    if args.x is None:
        return np.ones(n)
    x = np.array(_parse("--x", _float_list, args.x))
    if x.shape[0] != n:
        raise ProblemFormatError(f"--x has {x.shape[0]} entries, state dim is {n}")
    return x


def cmd_certify(args) -> int:
    problem = _get_problem(args)
    config = _config(args)
    print(_header(args, config))
    report = certify_A3(problem, config)
    print(f"certificate: {report.status}")
    if report.certified:
        print(f"  min player-1 margin {report.min_margin1:.6e}")
        print(f"  max player-2 margin {report.max_margin2:.6e}")
        return EXIT_OK
    print(f"  failing side {report.failing_side} at t={report.failure_time:.6g} "
          f"({report.failure_reason})")
    return EXIT_NOT_CERTIFIED


def _solve_game(problem, config):
    t0 = time.perf_counter()
    sol = solve_riccati(problem, config, "game")
    return sol, time.perf_counter() - t0


def cmd_solve(args) -> int:
    problem = _get_problem(args)
    config = _config(args)
    print(_header(args, config))
    if args.lam:
        lambdas = _parse("--lambda", _float_list, args.lam)
        family = solve_lambda_family(problem, lambdas, config)
        for lam, sol, failure in zip(family.lambdas, family.solutions,
                                     family.failures):
            if sol is None:
                print(f"lambda={lam:g}: {failure}")
            else:
                print(f"lambda={lam:g}: P(0) trace {np.trace(sol.P0()):.8g}")
        return EXIT_OK
    try:
        sol, elapsed = _solve_game(problem, config)
    except (RegularityError, BlowUpError) as err:
        print(f"solve failed: {err}")
        return EXIT_REGULARITY
    print(f"solved {config.n_steps} steps in {elapsed:.3f}s; "
          f"P(0) =\n{sol.P0()}")
    if args.out:
        save_solution(f"{args.out}/solution.json", sol.grid, sol.P_nodes,
                      sol.margin1_nodes, sol.margin2_nodes, config=config,
                      seed=args.seed, timings={"solve_s": elapsed})
        save_plot_data(f"{args.out}/solution.csv", sol.grid, sol.P_nodes,
                       sol.margin1_nodes, sol.margin2_nodes)
        print(f"wrote {args.out}/solution.json and .csv")
    return EXIT_OK


def cmd_synthesize(args) -> int:
    problem = _get_problem(args)
    config = _config(args)
    print(_header(args, config))
    try:
        sol, elapsed = _solve_game(problem, config)
    except (RegularityError, BlowUpError) as err:
        print(f"solve failed: {err}")
        return EXIT_REGULARITY
    law = feedback_gain(problem, sol)
    print(f"Theta(0) =\n{law.theta_nodes[0]}")
    if args.out:
        save_solution(f"{args.out}/solution.json", sol.grid, sol.P_nodes,
                      sol.margin1_nodes, sol.margin2_nodes,
                      theta_nodes=law.theta_nodes, config=config,
                      seed=args.seed, timings={"solve_s": elapsed})
        print(f"wrote {args.out}/solution.json")
    return EXIT_OK


def cmd_simulate(args) -> int:
    problem = _get_problem(args)
    config = _config(args)
    print(_header(args, config))
    x = _x_vector(args, problem.n)
    try:
        sol, _ = _solve_game(problem, config)
    except (RegularityError, BlowUpError) as err:
        print(f"solve failed: {err}")
        return EXIT_REGULARITY
    law = feedback_gain(problem, sol)
    grid = TimeGrid(problem.horizon_T, config.n_steps)
    ens = simulate(problem, ControlLaw.from_feedback(law, 1, grid),
                   ControlLaw.from_feedback(law, 2, grid), x, grid,
                   args.paths, args.seed)
    est = estimate_cost(problem, ens)
    print(f"value <P(0)x,x> = {game_value(sol, x):.8g}")
    print(f"closed-loop cost {est.mean:.8g} +- {est.std_error:.3g} "
          f"({est.n_paths} paths)")
    return EXIT_OK


def cmd_verify(args) -> int:
    problem = _get_problem(args)
    config = _config(args)
    print(_header(args, config))
    x = _x_vector(args, problem.n)
    try:
        sol, _ = _solve_game(problem, config)
    except (RegularityError, BlowUpError) as err:
        print(f"solve failed: {err}")
        return EXIT_REGULARITY
    law = feedback_gain(problem, sol)
    report = verify_saddle(problem, sol, law, x, n_perturbations=5,
                           n_paths=args.paths, seed=args.seed)
    _print_saddle(report)
    return EXIT_OK if report.verdict == "PASS" else EXIT_VERIFY_FAIL


def _print_saddle(report) -> None:
    print(f"value analytic {report.value_analytic:.8g}, "
          f"Monte-Carlo {report.value_mc.mean:.8g} "
          f"+- {report.value_mc.std_error:.3g}")
    g1 = min((g.mean for g in report.gaps_player1), default=float("nan"))
    g2 = max((g.mean for g in report.gaps_player2), default=float("nan"))
    print(f"worst player-1 gap {g1:.4g} (want >= 0 within noise), "
          f"worst player-2 gap {g2:.4g} (want <= 0 within noise)")
    print(f"saddle verdict: {report.verdict}")


def cmd_det_rep(args) -> int:
    problem = _get_problem(args)
    config = _config(args)
    print(_header(args, config))
    report = equivalence_report(problem, config)
    print(f"certificate: {report.certificate.status}")
    print("backward solve: " + ("ok" if report.riccati else report.riccati_failure))
    print("representation: " + ("ok" if report.rep else report.rep_failure))
    if report.cross_error is not None:
        print(f"max node |P_rep - P_backward| = {report.cross_error:.3e}")
    if report.all_succeeded:
        return EXIT_OK
    if report.riccati is None or report.rep is None:
        return EXIT_REGULARITY
    return EXIT_NOT_CERTIFIED


def cmd_pipeline(args) -> int:
    problem = _get_problem(args)
    return run_pipeline(problem, _config(args), args)


def run_pipeline(problem: GameProblem, config: SolverConfig, args) -> int:
    """certify -> solve -> synthesize -> verify; writes artifacts to --out.

    The game solve and artifact dump run even when the certificate is
    refused, so counterexample instances still produce a solution file."""
    print(_header(args, config))
    timings = {}
    x = _x_vector(args, problem.n)

    t0 = time.perf_counter()
    cert = certify_A3(problem, config)
    timings["certify_s"] = time.perf_counter() - t0
    print(f"certificate: {cert.status}")

    try:
        sol, timings["solve_s"] = _solve_game(problem, config)
    except (RegularityError, BlowUpError) as err:
        print(f"game Riccati failed: {err}")
        return EXIT_REGULARITY
    law = feedback_gain(problem, sol)
    print(f"value <P(0)x,x> = {game_value(sol, x):.8g}")

    if args.out:
        save_solution(f"{args.out}/solution.json", sol.grid, sol.P_nodes,
                      sol.margin1_nodes, sol.margin2_nodes,
                      theta_nodes=law.theta_nodes, config=config,
                      seed=args.seed, timings=timings)
        save_plot_data(f"{args.out}/solution.csv", sol.grid, sol.P_nodes,
                       sol.margin1_nodes, sol.margin2_nodes)
        print(f"wrote {args.out}/solution.json and .csv")

    if not cert.certified:
        print(f"  certificate refused on side {cert.failing_side} "
              f"at t={cert.failure_time:.6g}")
        return EXIT_NOT_CERTIFIED

    if problem.is_deterministic():
        det = equivalence_report(problem, config)
        if det.cross_error is not None:
            print(f"deterministic representation error {det.cross_error:.3e}")

    report = verify_saddle(problem, sol, law, x, n_perturbations=5,
                           n_paths=args.paths, seed=args.seed)
    _print_saddle(report)
    return EXIT_OK if report.verdict == "PASS" else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# the example library


def run_example(name: str, args) -> int:
    if name not in EXAMPLE_NAMES:
        print(f"unknown example {name!r}; choose from {EXAMPLE_NAMES}",
              file=sys.stderr)
        return 2
    problem = example_problem(name)
    config = _config(args)
    print(_header(args, config))
    grid = TimeGrid(1.0, config.n_steps)
    x = _x_vector(args, problem.n)

    if name == "ex4_5":
        cert = certify_A3(problem, config)
        print(f"certificate: {cert.status} "
              f"(player-{cert.failing_side} companion fails at "
              f"t={cert.failure_time:.4g})")
        sol, _ = _solve_game(problem, config)
        exact = 2.0 / (sol.grid.nodes - 2.0)
        err = float(np.abs(sol.P_nodes[:, 0, 0] - exact).max())
        print(f"game Riccati solves anyway: P(0) = {sol.P0()[0, 0]:.10f} "
              f"(closed form -1)")
        print(f"max |P - 2/(t-2)| = {err:.3e}")
        return EXIT_OK

    if name == "ex5_2":
        zeros1 = ControlLaw.constant(np.zeros(1))
        ens = simulate(problem, zeros1, ControlLaw.constant(np.zeros(1)),
                       x, grid, 1, args.seed)
        cost0 = estimate_cost(problem, ens).mean
        print(f"J(x; 0, 0) = {cost0:.10g} = x^2 exactly (no noise when u2=0), "
              f"so V+ <= x^2")
        lows = []
        for k in range(3):
            u1 = ControlLaw.constant([float(k)])
            est = estimate_cost(problem, simulate(
                problem, u1, ControlLaw.constant(np.zeros(1)), x, grid, 1,
                args.seed))
            lows.append(est.mean)
        print(f"J(x; u1, 0) samples {['%.4g' % v for v in lows]} all >= 0, "
              f"consistent with V- >= 0")
        try:
            solve_riccati(problem, config, "game")
            print("unexpected: game Riccati solved")
        except RegularityError as err:
            print(f"game Riccati: regularity failure at t={err.time:.6g} "
                  f"(player-{err.side} margin {err.margin:.3e})")
        return EXIT_OK

    if name == "ex3_4":
        table = falsify_lower_value(problem, x, [0.0, 10.0, 100.0],
                                    n_paths=args.paths, seed=args.seed)
        x0 = float(x[0])
        for lam, est in table:
            closed = -(x0 * x0 + 2.0 * lam * x0)
            print(f"J({x0:g}; {lam:g}, 0) = {est.mean:.6g} "
                  f"+- {est.std_error:.3g} (closed form {closed:g})")
        means = [est.mean for _, est in table]
        trend = "decreasing" if all(b < a for a, b in zip(means, means[1:])) \
            else "NOT decreasing"
        print(f"cost trend over lambda: {trend} -> lower value unbounded below")
        return EXIT_OK

    # ex3_2: one-sided value bounds by direct simulation
    zeros = ControlLaw.constant(np.zeros(1))
    x0 = float(x[0])
    uppers = []
    for k in range(1, 4):
        u2 = ControlLaw.constant([float(k)])
        est = estimate_cost(problem, simulate(problem, zeros, u2, x, grid,
                                              args.paths, args.seed))
        uppers.append(est)
        print(f"J(x; 0, {k}) = {est.mean:.6g} +- {est.std_error:.3g} "
              f"(x^2 = {x0 * x0:g})")
    lowers = []
    for k in range(3):
        u1 = ControlLaw.constant([float(k)])
        est = estimate_cost(problem, simulate(problem, u1, zeros, x, grid,
                                              args.paths, args.seed))
        lowers.append(est)
        print(f"J(x; {k}, 0) = {est.mean:.6g} +- {est.std_error:.3g} (>= 0)")
    ok = all(e.mean <= x0 * x0 + 3 * e.std_error for e in uppers) and \
        all(e.mean >= -3 * e.std_error for e in lowers)
    print("one-sided bounds V- >= 0, V+ <= x^2: "
          + ("consistent" if ok else "VIOLATED"))
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lqgame",
        description="Zero-sum stochastic linear-quadratic differential games")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_example=False):
        p = sub.add_parser(name)
        p.add_argument("--problem", default=None)
        p.add_argument("--steps", type=int, default=2000)
        p.add_argument("--eps-reg", type=float, default=1e-6, dest="eps_reg")
        p.add_argument("--paths", type=int, default=10_000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--x", default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--lambda", default=None, dest="lam")
        if needs_example:
            p.add_argument("name", choices=EXAMPLE_NAMES)
        p.set_defaults(fn=fn)
        return p

    add("certify", cmd_certify)
    add("solve", cmd_solve)
    add("synthesize", cmd_synthesize)
    add("simulate", cmd_simulate)
    add("verify", cmd_verify)
    add("det-rep", cmd_det_rep)
    add("pipeline", cmd_pipeline)
    add("example", lambda args: run_example(args.name, args), needs_example=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ProblemFormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except LqgError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
