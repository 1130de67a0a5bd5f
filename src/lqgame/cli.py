"""Command-line front end: problem-file loading, the example library, and
one staged runner.  Each command runs its stages of the chain certify ->
solve -> synthesize -> simulate | verify, and solves each equation once.

Exit codes: 0 success, 2 certificate refused or unreadable/malformed input
(problem file or flag), 3 Riccati regularity or blow-up failure, 4 saddle
verification failed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Iterator

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
    BlowUpError, RegularityError, SolverConfig, _checked_levels, certify_A3,
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

    declared = tuple(doc["dims"].get(key) for key in ("n", "m1", "m2"))
    for key, value in zip(("n", "m1", "m2"), declared):
        if type(value) is not int:      # not a float, a bool or a string
            raise ProblemFormatError(
                f"dims.{key}: expected a JSON integer, got {value!r}")
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
        "P_nodes": _node_texts(np.asarray(P_nodes)),
        "margins": {"margin1": np.asarray(margin1).tolist(),
                    "margin2": np.asarray(margin2).tolist()},
        "theta_nodes": None if theta_nodes is None
        else np.asarray(theta_nodes).tolist(),
        "meta": meta,
    }
    with open(path, "w", encoding="utf-8") as fh:
        _dump_by_item(doc, fh)
        fh.write("\n")


def _node_texts(P_nodes: np.ndarray):
    """The text ``json.dumps`` writes for each node of a stack of square
    float matrices, one node at a time.

    A node that is finite and symmetric bit for bit, as every node of a
    solve except perhaps its last, G, is laid out from the reprs of its
    n(n+1)/2 distinct entries, each formatted once by ``float.__repr__``
    as json formats it; any other node, or any other array, goes through
    ``json.dumps``."""
    if P_nodes.dtype != np.float64 or P_nodes.ndim != 3 \
            or P_nodes.shape[1] != P_nodes.shape[2]:
        yield from map(json.dumps, P_nodes.tolist())
        return
    n = P_nodes.shape[-1]
    rows, cols = np.triu_indices(n)
    slot = np.empty((n, n), dtype=int)
    slot[rows, cols] = slot[cols, rows] = np.arange(rows.size)
    layout = "[" + ", ".join(
        "[" + ", ".join(f"{{{j}}}" for j in row) + "]"
        for row in slot.tolist()) + "]"
    bits = P_nodes.view(np.int64)
    plain = (bits == bits.mT).all(axis=(1, 2)) \
        & np.isfinite(P_nodes).all(axis=(1, 2))
    upper = P_nodes[:, rows, cols]
    for node, distinct, ok in zip(P_nodes, upper, plain):
        if ok:
            yield layout.format(*map(float.__repr__, distinct.tolist()))
        else:
            yield json.dumps(node.tolist())


def _dump_by_item(doc: dict, fh) -> None:
    """Write the bytes of ``json.dump(doc, fh)``, encoding each top-level
    value, and each item of a top-level list, with one ``json.dumps``; a
    top-level value that is an iterator yields its items' texts.

    ``json.dumps`` without indent runs the C encoder, about twice as fast as
    the pure-Python one that ``json.dump`` streams through; one
    ``json.dumps`` of a whole solution would hold a piece per number in
    memory at once; item by item it holds one node's text, besides the
    array of the distinct entries of every node that ``_node_texts``
    takes."""
    fh.write("{")
    for i, (key, value) in enumerate(doc.items()):
        fh.write(f"{', ' if i else ''}{json.dumps(key)}: ")
        if isinstance(value, list):
            value = map(json.dumps, value)
        if isinstance(value, Iterator):
            fh.write("[")
            for j, text in enumerate(value):
                fh.write(f"{', ' if j else ''}{text}")
            fh.write("]")
        else:
            fh.write(json.dumps(value))
    fh.write("}")


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
        # the message names eps_reg: the flag types let through only a
        # value of --eps-reg that is not positive
        raise ProblemFormatError(str(err)) from None


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


# flag types: argparse lets a ProblemFormatError through, so main() turns a
# refused value into exit 2 before any command runs


def _integer(flag: str, least: int):
    """The flag type of an integer of at least ``least``."""
    def parse(text: str) -> int:
        value = _parse(flag, int, text)
        if value < least:
            raise ProblemFormatError(
                f"{flag}: need an integer >= {least}, got {value}")
        return value
    return parse


def _penalty_levels(text: str) -> list[float]:
    lambdas = _parse("--lambda", _float_list, text)
    try:
        return _checked_levels(lambdas)
    except ContractViolation as err:
        raise ProblemFormatError(f"--lambda: {err}") from None


def _x_vector(args, n: int) -> np.ndarray:
    if args.x is None:
        return np.ones(n)
    x = np.array(_parse("--x", _float_list, args.x))
    if x.shape[0] != n:
        raise ProblemFormatError(f"--x has {x.shape[0]} entries, state dim is {n}")
    return x


# each command's stages, in the order of the chain certify -> solve ->
# synthesize -> simulate | verify; the cross-check compares a noise-free
# game's backward solution with its fundamental-matrix representation
_STAGES = {
    "certify": ("certify",),
    "solve": ("solve",),
    "synthesize": ("solve", "synthesize"),
    "simulate": ("solve", "synthesize", "simulate"),
    "verify": ("solve", "synthesize", "verify"),
    "det-rep": ("certify", "solve", "cross-check"),
    "pipeline": ("certify", "solve", "synthesize", "cross-check", "verify"),
}


def run(args) -> int:
    """Run the stages of ``args.command`` and return its exit code.

    The certificate and the game solve share one backward pass.  pipeline
    solves and writes its artifacts even when the certificate is refused,
    so counterexample instances still produce a solution file; it
    cross-checks only a noise-free game."""
    command = args.command
    stages = _STAGES[command]
    if args.problem is None:
        raise ProblemFormatError("--problem is required for this command")
    problem = load_problem(args.problem)
    config = _config(args)
    print(_header(args, config))
    if command == "det-rep":
        for name in ("C", "D1", "D2"):
            if not getattr(problem.dynamics, name).is_zero():
                raise ProblemFormatError(
                    f"dynamics.{name}: det-rep needs a noise-free problem "
                    f"(C = D1 = D2 = 0)")
    x = _x_vector(args, problem.n) if stages[-1] in ("simulate", "verify") \
        else None
    if command == "solve" and args.lam:
        family = solve_lambda_family(problem, args.lam, config)
        for lam, sol, failure in zip(family.lambdas, family.solutions,
                                     family.failures):
            if sol is None:
                print(f"lambda={lam:g}: {failure}")
            else:
                print(f"lambda={lam:g}: P(0) trace {np.trace(sol.P0()):.8g}")
        return EXIT_OK

    # the game outcome is its solution or the solver's error; a certificate
    # integrates it in its own backward pass, so the solve looks it up
    t0 = time.perf_counter()
    cert = certify_A3(problem, config) if "certify" in stages else None
    game = None
    if "solve" in stages:
        try:
            game = solve_riccati(problem, config)
        except (RegularityError, BlowUpError) as err:
            game = err
    timings = {"solve_s": time.perf_counter() - t0}

    if cert is not None:
        print(f"certificate: {cert.status}")
    if command == "certify":
        if cert.certified:
            print(f"  min player-1 margin {cert.min_margin1:.6e}")
            print(f"  max player-2 margin {cert.max_margin2:.6e}")
            return EXIT_OK
        print(f"  failing side {cert.failing_side} at t={cert.failure_time:.6g} "
              f"({cert.failure_reason})")
        return EXIT_NOT_CERTIFIED
    if command == "det-rep":
        det = equivalence_report(problem, config)
        print("backward solve: " + ("ok" if det.riccati else det.riccati_failure))
        print("representation: " + ("ok" if det.rep else det.rep_failure))
        if det.cross_error is not None:
            print(f"max node |P_rep - P_backward| = {det.cross_error:.3e}")
        if det.all_succeeded:
            return EXIT_OK
        if det.riccati is None or det.rep is None:
            return EXIT_REGULARITY
        return EXIT_NOT_CERTIFIED
    if isinstance(game, LqgError):
        failed = "game Riccati failed" if command == "pipeline" \
            else "solve failed"
        print(f"{failed}: {game}")
        return EXIT_REGULARITY

    if command == "solve":
        print(f"solved {config.n_steps} steps in {timings['solve_s']:.3f}s; "
              f"P(0) =\n{game.P0()}")
    law = feedback_gain(problem, game) if "synthesize" in stages else None
    if command == "synthesize":
        print(f"Theta(0) =\n{law.theta_nodes[0]}")
    if command in ("simulate", "pipeline"):
        print(f"value <P(0)x,x> = {game_value(game, x):.8g}")
    if args.out and command in ("solve", "synthesize", "pipeline"):
        try:
            save_solution(f"{args.out}/solution.json", game.grid, game.P_nodes,
                          game.margin1_nodes, game.margin2_nodes,
                          theta_nodes=None if law is None else law.theta_nodes,
                          config=config, seed=args.seed, timings=timings)
            save_plot_data(f"{args.out}/solution.csv", game.grid,
                           game.P_nodes, game.margin1_nodes,
                           game.margin2_nodes)
        except OSError as err:
            raise ProblemFormatError(f"--out: {err}") from None
        print(f"wrote {args.out}/solution.json and .csv")
    if command in ("solve", "synthesize"):
        return EXIT_OK

    if command == "simulate":
        grid = TimeGrid(problem.horizon_T, config.n_steps)
        est = estimate_cost(problem, simulate(
            problem, ControlLaw.from_feedback(law, 1, grid),
            ControlLaw.from_feedback(law, 2, grid), x, grid, args.paths,
            args.seed))
        print(f"closed-loop cost {est.mean:.8g} +- {est.std_error:.3g} "
              f"({est.n_paths} paths)")
        return EXIT_OK
    if command == "pipeline":
        if not cert.certified:
            print(f"  certificate refused on side {cert.failing_side} "
                  f"at t={cert.failure_time:.6g}")
            return EXIT_NOT_CERTIFIED
        if problem.is_deterministic():
            det = equivalence_report(problem, config)
            if det.cross_error is not None:
                print(f"deterministic representation error "
                      f"{det.cross_error:.3e}")

    report = verify_saddle(problem, game, law, x, n_perturbations=5,
                           n_paths=args.paths, seed=args.seed)
    print(f"value analytic {report.value_analytic:.8g}, "
          f"Monte-Carlo {report.value_mc.mean:.8g} "
          f"+- {report.value_mc.std_error:.3g}")
    g1 = min((g.mean for g in report.gaps_player1), default=float("nan"))
    g2 = max((g.mean for g in report.gaps_player2), default=float("nan"))
    print(f"worst player-1 gap {g1:.4g} (want >= 0 within noise), "
          f"worst player-2 gap {g2:.4g} (want <= 0 within noise)")
    print(f"saddle verdict: {report.verdict}")
    return EXIT_OK if report.verdict == "PASS" else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------------
# the example library


def run_example(name: str, args) -> int:
    problem = example_problem(name)
    config = _config(args)
    print(_header(args, config))
    grid = TimeGrid(1.0, config.n_steps)
    x = _x_vector(args, problem.n)

    if name == "ex4_5":
        cert = certify_A3(problem, config)
        sol = solve_riccati(problem, config)
        print(f"certificate: {cert.status} "
              f"(player-{cert.failing_side} companion fails at "
              f"t={cert.failure_time:.4g})")
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

    for name in (*_STAGES, "example"):
        p = sub.add_parser(name)
        p.add_argument("--problem", default=None)
        p.add_argument("--steps", type=_integer("--steps", 2), default=2000)
        # named as SolverConfig names it when it refuses a value <= 0
        p.add_argument("--eps-reg", dest="eps_reg", default=1e-6,
                       type=lambda text: _parse("eps_reg", float, text))
        p.add_argument("--paths", type=_integer("--paths", 1), default=10_000)
        p.add_argument("--seed", type=_integer("--seed", 0), default=0)
        p.add_argument("--x", default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--lambda", type=_penalty_levels, default=None,
                       dest="lam")
        if name == "example":
            p.add_argument("name", choices=EXAMPLE_NAMES)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "example":
            return run_example(args.name, args)
        return run(args)
    except ProblemFormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except LqgError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
