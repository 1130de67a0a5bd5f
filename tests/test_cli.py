import json
import re

import numpy as np
import pytest

from lqgame import (
    SolverConfig, TimeGrid, equivalence_report, example_problem, feedback_gain,
    solve_riccati,
)
from lqgame.cli import (
    ProblemFormatError, load_problem, load_solution, main, save_plot_data,
    save_problem, save_solution,
)
from conftest import scalar_game


@pytest.fixture()
def ex4_5_file(tmp_path, ex4_5):
    path = tmp_path / "ex4_5.json"
    save_problem(ex4_5, str(path))
    return str(path)


@pytest.fixture()
def rand_file(tmp_path, rand_problem):
    path = tmp_path / "rand.json"
    save_problem(rand_problem, str(path))
    return str(path)


class TestProblemFiles:
    def test_round_trip_constant(self, ex4_5_file):
        p = load_problem(ex4_5_file)
        assert (p.n, p.m1, p.m2) == (1, 1, 1)
        assert p.cost.G[0, 0] == -2.0
        assert p.cost.R22.values[0, 0] == -2.0 / 3.0

    def test_round_trip_sampled(self, tmp_path, ex5_2):
        path = tmp_path / "p.json"
        save_problem(ex5_2, str(path))
        p = load_problem(str(path))
        assert np.array_equal(p.cost.R11.values, ex5_2.cost.R11.values)
        assert p.cost.R11.span == 1.0

    def test_R21_mismatch_names_field(self, tmp_path, ex4_5):
        path = tmp_path / "bad.json"
        save_problem(ex4_5, str(path))
        doc = json.loads(path.read_text())
        doc["cost"]["R21"] = {"constant": [[0.125]]}
        path.write_text(json.dumps(doc))
        with pytest.raises(ProblemFormatError, match="cost.R21"):
            load_problem(str(path))

    def test_empty_file_is_parse_error(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(ProblemFormatError, match="JSON"):
            load_problem(str(path))

    def test_missing_coefficient_named(self, tmp_path, ex4_5):
        path = tmp_path / "bad.json"
        save_problem(ex4_5, str(path))
        doc = json.loads(path.read_text())
        del doc["dynamics"]["B2"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ProblemFormatError, match="dynamics.B2"):
            load_problem(str(path))

    def test_dims_mismatch_rejected(self, tmp_path, ex4_5):
        path = tmp_path / "bad.json"
        save_problem(ex4_5, str(path))
        doc = json.loads(path.read_text())
        doc["dims"]["n"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(ProblemFormatError, match="dims"):
            load_problem(str(path))

    def test_non_uniform_times_rejected(self, tmp_path, ex4_5):
        path = tmp_path / "bad.json"
        save_problem(ex4_5, str(path))
        doc = json.loads(path.read_text())
        doc["cost"]["Q"] = {"samples": {"times": [0.0, 0.3, 1.0],
                                        "values": [[[0.0]]] * 3}}
        path.write_text(json.dumps(doc))
        with pytest.raises(ProblemFormatError, match="cost.Q"):
            load_problem(str(path))


class TestSolutionFiles:
    def test_bit_exact_round_trip(self, tmp_path, ex4_5):
        sol = solve_riccati(ex4_5, SolverConfig(n_steps=50), "game")
        path = tmp_path / "sol.npz"
        save_solution(str(path), sol.grid, sol.P_nodes, sol.margin1_nodes,
                      sol.margin2_nodes, config=SolverConfig(n_steps=50),
                      seed=0)
        doc = load_solution(str(path))
        assert np.array_equal(doc["P_nodes"], sol.P_nodes)
        assert np.array_equal(doc["margins"]["margin1"], sol.margin1_nodes)
        assert doc["grid"] == {"horizon": 1.0, "n_steps": 50}
        assert doc["meta"]["config"]["n_steps"] == 50
        assert doc["meta"]["seed"] == 0
        assert doc["meta"]["version"].startswith("lqgame-")

    def test_saved_without_gains_loads_none(self, tmp_path, rand_problem):
        doc = load_solution(str(self._solved_file(tmp_path, rand_problem)))
        assert doc["theta_nodes"] is None

    def test_numpy_integer_steps(self, tmp_path):
        # n_steps is stored as an int, so a NumPy integer writes the same file
        assert type(TimeGrid(1.0, np.int64(50)).n_steps) is int
        files = []
        for steps in (50, np.int64(50)):
            config = SolverConfig(n_steps=steps)
            sol = solve_riccati(example_problem("ex4_5"), config, "game")
            path = tmp_path / f"{type(steps).__name__}.npz"
            save_solution(str(path), sol.grid, sol.P_nodes, sol.margin1_nodes,
                          sol.margin2_nodes, config=config, seed=0)
            files.append(path.read_bytes())
        assert files[0] == files[1]

    @pytest.mark.parametrize("variant", [
        "solve", "inexact_last", "non_finite", "one_by_one", "negative_zero",
        "plain_list", "integers"])
    def test_bytes_equal_json_dump(self, tmp_path, rand_problem, variant):
        # P_nodes of any of these layouts loads as float64, bit-equal to
        # np.asarray(P, dtype=float); the head entry holds the bytes that
        # json.dumps writes of the grid and meta
        sol = solve_riccati(rand_problem, SolverConfig(n_steps=20), "game")
        law = feedback_gain(rand_problem, sol)
        P = np.array(sol.P_nodes)
        if variant == "inexact_last":
            P[-1, 0, 1] = np.nextafter(P[-1, 1, 0], np.inf)
        elif variant == "non_finite":
            P[1, 0, 0] = np.nan
            P[2, 0, 1] = P[2, 1, 0] = np.inf
            P[3, 2, 3] = P[3, 3, 2] = -np.inf
            P[4, 1, 2], P[4, 2, 1] = np.nan, 0.5
        elif variant == "one_by_one":
            P = P[:, :1, :1]
        elif variant == "negative_zero":
            P[0] = -0.0
            P[1, 0, 1], P[1, 1, 0] = -0.0, 0.0
            P[2, 0, 1] = P[2, 1, 0] = -0.0
        elif variant == "plain_list":
            P = P.tolist()
        elif variant == "integers":
            P = np.rint(1e3 * P).astype(int).tolist()
        path = tmp_path / "sol.json"      # save_solution appends no .npz
        save_solution(str(path), sol.grid, P, sol.margin1_nodes,
                      sol.margin2_nodes, theta_nodes=law.theta_nodes,
                      config=SolverConfig(n_steps=20), seed=3,
                      timings={"solve_s": 0.25})
        doc = load_solution(str(path))
        want = np.asarray(P, dtype=float)
        assert doc["P_nodes"].dtype == np.float64
        assert doc["P_nodes"].shape == want.shape
        assert doc["P_nodes"].tobytes() == want.tobytes()
        assert doc["theta_nodes"].tobytes() == law.theta_nodes.tobytes()
        assert doc["meta"]["timings"] == {"solve_s": 0.25}
        with np.load(str(path), allow_pickle=False) as archive:
            assert sorted(archive.files) == [
                "P_nodes", "head", "margin1", "margin2", "theta_nodes"]
            assert str(archive["head"]) == json.dumps(
                {"grid": doc["grid"], "meta": doc["meta"]})

    @staticmethod
    def _archive(path, **entries):
        """An archive of a well-formed head and margins, plus ``entries``."""
        with open(path, "wb") as fh:
            np.savez(fh, head=np.array(json.dumps({"grid": {}, "meta": {}})),
                     margin1=np.ones(3), margin2=np.ones(3), **entries)
        return str(path)

    def _solved_file(self, tmp_path, rand_problem):
        sol = solve_riccati(rand_problem, SolverConfig(n_steps=20), "game")
        path = tmp_path / "sol.npz"
        save_solution(str(path), sol.grid, sol.P_nodes, sol.margin1_nodes,
                      sol.margin2_nodes)
        return path

    def test_refuses_old_json_solution(self, tmp_path):
        path = tmp_path / "solution.json"
        path.write_text(json.dumps({"grid": {"horizon": 1.0, "n_steps": 1},
                                    "P_nodes": [[[1.0]], [[0.0]]]}) + "\n")
        with pytest.raises(ProblemFormatError,
                           match=re.escape(f"{path}: not a solution archive")):
            load_solution(str(path))

    def test_refuses_truncated_archive(self, tmp_path, rand_problem):
        path = self._solved_file(tmp_path, rand_problem)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(ProblemFormatError,
                           match=re.escape(f"{path}: not a solution archive")):
            load_solution(str(path))

    def test_refuses_archive_without_P_nodes(self, tmp_path):
        path = self._archive(tmp_path / "sol.npz")
        with pytest.raises(ProblemFormatError,
                           match=re.escape(f"{path}: no entry 'P_nodes'")):
            load_solution(path)

    def test_refuses_pickled_entry(self, tmp_path, monkeypatch):
        # an object array is refused by name and never unpickled
        for name in ("load", "loads"):
            monkeypatch.setattr(f"pickle.{name}", lambda *a, **k: pytest.fail(
                "load_solution unpickled an entry"))
        path = self._archive(tmp_path / "sol.npz",
                             P_nodes=np.array([{"a": 1}], dtype=object))
        with pytest.raises(ProblemFormatError, match=re.escape(
                f"{path}: entry 'P_nodes': Object arrays")):
            load_solution(path)

    def test_corrupted_byte_loads_or_is_refused(self, tmp_path):
        # whichever byte of a small archive is corrupted, the file loads or
        # is refused with ProblemFormatError, never with a raw zipfile,
        # NumPy or JSON error
        path = tmp_path / "sol.npz"
        save_solution(str(path), TimeGrid(1.0, 2), np.ones((3, 1, 1)),
                      np.ones(3), np.ones(3), theta_nodes=np.ones((3, 2, 1)))
        data = path.read_bytes()
        for k in range(len(data)):
            path.write_bytes(data[:k] + bytes([data[k] ^ 0xFF]) + data[k + 1:])
            try:
                load_solution(str(path))
            except ProblemFormatError:
                pass

    def test_plot_data_columns(self, tmp_path, rand_problem):
        sol = solve_riccati(rand_problem, SolverConfig(n_steps=20), "game")
        path = tmp_path / "sol.csv"
        save_plot_data(str(path), sol.grid, sol.P_nodes, sol.margin1_nodes,
                       sol.margin2_nodes)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        n = rand_problem.n
        assert header[0] == "t"
        assert header[-2:] == ["margin1", "margin2"]
        assert len(header) == 1 + n * n + 2
        assert len(lines) == 22
        # float cells round-trip exactly
        row = lines[1].split(",")
        assert float(row[1]) == sol.P_nodes[0].ravel()[0]


class TestCommands:
    def test_certify_exit_codes(self, ex4_5_file, rand_file):
        assert main(["certify", "--problem", ex4_5_file, "--steps", "400"]) == 2
        assert main(["certify", "--problem", rand_file, "--steps", "400"]) == 0

    def test_solve_writes_artifacts(self, tmp_path, rand_file):
        out = tmp_path / "out"
        out.mkdir()
        code = main(["solve", "--problem", rand_file, "--steps", "200",
                     "--out", str(out)])
        assert code == 0
        assert (out / "solution.npz").exists()
        assert (out / "solution.csv").exists()

    def test_synthesize_writes_npz_and_csv(self, capsys, tmp_path, rand_file):
        solved, synthesized = tmp_path / "solved", tmp_path / "synthesized"
        for command, out in (("solve", solved), ("synthesize", synthesized)):
            out.mkdir()
            assert main([command, "--problem", rand_file, "--steps", "200",
                         "--out", str(out)]) == 0
        assert f"wrote {synthesized}/solution.npz and .csv" in \
            capsys.readouterr().out
        assert load_solution(str(synthesized / "solution.npz"))[
            "theta_nodes"] is not None
        # the same P and margins, so the same table
        assert (synthesized / "solution.csv").read_bytes() == \
            (solved / "solution.csv").read_bytes()

    def test_solve_lambda_family(self, capsys, ex4_5_file):
        code = main(["solve", "--problem", ex4_5_file, "--steps", "200",
                     "--lambda", "1.0,0.5"])
        assert code == 0
        outp = capsys.readouterr().out
        assert "lambda=1" in outp and "lambda=0.5" in outp

    def test_pipeline_certified_passes(self, tmp_path, rand_file):
        out = tmp_path / "out"
        out.mkdir()
        code = main(["pipeline", "--problem", rand_file, "--steps", "400",
                     "--paths", "2000", "--out", str(out)])
        assert code == 0
        doc = load_solution(str(out / "solution.npz"))
        assert doc["theta_nodes"] is not None

    def test_pipeline_ex4_5_not_certified_still_writes(self, tmp_path,
                                                       ex4_5_file):
        out = tmp_path / "out"
        out.mkdir()
        code = main(["pipeline", "--problem", ex4_5_file, "--steps", "400",
                     "--out", str(out)])
        assert code == 2
        assert (out / "solution.npz").exists()

    def test_pipeline_ex5_2_regularity_exit(self, tmp_path, ex5_2):
        path = tmp_path / "ex5_2.json"
        save_problem(ex5_2, str(path))
        assert main(["pipeline", "--problem", str(path),
                     "--steps", "400"]) == 3

    def test_det_rep_command(self, tmp_path, rand_det_problem):
        path = tmp_path / "det.json"
        save_problem(rand_det_problem, str(path))
        assert main(["det-rep", "--problem", str(path), "--steps", "400"]) == 0

    def test_simulate_and_verify(self, capsys, rand_file):
        assert main(["simulate", "--problem", rand_file, "--steps", "300",
                     "--paths", "500", "--seed", "3"]) == 0
        assert main(["verify", "--problem", rand_file, "--steps", "300",
                     "--paths", "2000", "--seed", "3"]) == 0
        assert "verdict: PASS" in capsys.readouterr().out

    def test_verify_steps_the_simulate_grid(self, capsys, rand_file):
        # verify and simulate both step --steps Euler steps on one draw, so
        # simulate's closed-loop cost is verify's Monte-Carlo mean, as text
        argv = ["--problem", rand_file, "--steps", "400", "--paths", "300",
                "--seed", "1"]
        assert main(["simulate"] + argv) == 0
        sim = re.search(r"^closed-loop cost (\S+) ",
                        capsys.readouterr().out, re.M)
        main(["verify"] + argv)
        ver = re.search(r"Monte-Carlo (\S+) ", capsys.readouterr().out)
        assert sim and ver and sim.group(1) == ver.group(1)

    def test_reproducibility_header(self, capsys, rand_file):
        main(["certify", "--problem", rand_file, "--steps", "200",
              "--seed", "9"])
        head = capsys.readouterr().out.splitlines()[0]
        assert head.startswith("# lqgame-")
        assert "seed=9" in head and "n_steps=200" in head

    def test_seeded_runs_identical(self, capsys, rand_file):
        main(["simulate", "--problem", rand_file, "--steps", "200",
              "--paths", "300", "--seed", "5"])
        first = capsys.readouterr().out
        main(["simulate", "--problem", rand_file, "--steps", "200",
              "--paths", "300", "--seed", "5"])
        assert capsys.readouterr().out == first

    def test_bad_x_vector(self, rand_file):
        assert main(["solve", "--problem", rand_file, "--steps", "100",
                     "--x", "1,2,3,4,5,6,7"]) == 0  # solve ignores --x
        assert main(["simulate", "--problem", rand_file, "--steps", "100",
                     "--x", "1"]) == 2

    def test_missing_problem_flag(self):
        assert main(["certify"]) == 2


def _edited_file(tmp_path, problem, edit) -> str:
    path = tmp_path / "edited.json"
    save_problem(problem, str(path))
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return str(path)


class TestMalformedInput:
    """Outside input never escapes as a traceback: exit 2, field named."""

    @staticmethod
    def _exits_2_naming(capsys, argv, field):
        assert main(argv) == 2
        assert field in capsys.readouterr().err

    def test_missing_problem_file(self, capsys, tmp_path):
        self._exits_2_naming(
            capsys, ["certify", "--problem", str(tmp_path / "missing.json")],
            "--problem")

    def test_unreadable_problem_file(self, capsys, tmp_path):
        # a directory cannot be opened as a file
        self._exits_2_naming(capsys, ["certify", "--problem", str(tmp_path)],
                             "--problem")

    @pytest.mark.parametrize("field, edit", [
        ("dims", lambda d: d.update(dims="x")),
        ("dims.n", lambda d: d["dims"].update(n="two")),
        ("horizon", lambda d: d.update(horizon="one")),
        ("cost.G", lambda d: d["cost"].update(G=[[1.0, 0.0], [0.0]])),
        ("cost.G", lambda d: d["cost"].update(G=[[float("nan")]])),
        ("horizon", lambda d: d.update(horizon=float("inf"))),
        ("cost.Q", lambda d: d["cost"].update(
            Q={"constant": [[float("nan")]]})),
        ("dynamics.A", lambda d: d["dynamics"].update(A={"samples": {
            "times": [0.0, 1.0], "values": [[[0.0]], [[float("-inf")]]]}})),
        # each would truncate or convert to the true dimension, 1
        ("dims.n", lambda d: d["dims"].update(n=1.7)),
        ("dims.n", lambda d: d["dims"].update(n=1.0)),
        ("dims.m1", lambda d: d["dims"].update(m1=True)),
        ("dims.m2", lambda d: d["dims"].update(m2="1")),
    ], ids=["dims", "dims.n", "horizon", "cost.G", "cost.G-nan",
            "horizon-inf", "cost.Q-nan", "dynamics.A-inf", "dims.n-fraction",
            "dims.n-float", "dims.m1-bool", "dims.m2-string"])
    def test_malformed_field(self, capsys, tmp_path, ex4_5, field, edit):
        path = _edited_file(tmp_path, ex4_5, edit)
        self._exits_2_naming(capsys, ["certify", "--problem", path], field)

    def test_non_numeric_x(self, capsys, ex4_5_file):
        self._exits_2_naming(capsys, ["simulate", "--problem", ex4_5_file,
                                      "--x", "one"], "--x")

    @pytest.mark.parametrize("command, flag, value, field", [
        ("simulate", "--x", "nan", "--x"),
        ("solve", "--lambda", "1.0,inf", "--lambda"),
        ("certify", "--eps-reg", "nan", "eps_reg"),
        ("certify", "--eps-reg", "x", "eps_reg"),
        ("certify", "--steps", "1.5", "--steps"),
    ])
    def test_non_finite_flag(self, capsys, ex4_5_file, command, flag, value,
                             field):
        self._exits_2_naming(capsys, [command, "--problem", ex4_5_file, flag,
                                      value], field)

    def test_non_numeric_lambda(self, capsys, ex4_5_file):
        self._exits_2_naming(capsys, ["solve", "--problem", ex4_5_file,
                                      "--lambda", "1.0,half"], "--lambda")

    @pytest.mark.parametrize("value", ["-1", "0.5,0.5", "0.1,0.5", "nan",
                                       "inf,0.5"])
    def test_refused_penalty_levels(self, capsys, ex4_5_file, value):
        # refused while parsing, before any solve, not as a solver failure
        self._exits_2_naming(capsys, ["solve", "--problem", ex4_5_file,
                                      "--lambda", value], "--lambda")

    @pytest.mark.parametrize("noise, field", [
        ({"C": 0.5}, "dynamics.C"),
        ({"D1": 0.5, "D2": 0.5}, "dynamics.D1"),
        ({"D2": 0.5}, "dynamics.D2"),
    ], ids=["C", "D1", "D2"])
    def test_det_rep_refuses_noisy_problem(self, capsys, tmp_path, noise,
                                           field):
        # refused as input before any solve, not as a solver failure (exit 3)
        path = tmp_path / "noisy.json"
        save_problem(scalar_game(B1=1.0, B2=1.0, **noise), str(path))
        assert main(["det-rep", "--problem", str(path), "--steps", "50"]) == 2
        captured = capsys.readouterr()
        assert field in captured.err
        assert captured.out.count("\n") == 1      # the header alone

    @pytest.mark.parametrize("command", ["solve", "synthesize", "pipeline"])
    def test_unwritable_out_directory(self, capsys, tmp_path, rand_file,
                                      command):
        out = tmp_path / "no" / "such" / "dir"
        assert main([command, "--problem", rand_file, "--steps", "50",
                     "--paths", "200", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --out: ")
        assert not (tmp_path / "no").exists()

    @pytest.mark.parametrize("argv", [
        ["simulate"], ["verify"], ["pipeline"], ["solve"], ["example", "ex3_2"],
    ], ids=lambda argv: "-".join(argv))
    @pytest.mark.parametrize("seed", ["-1", "1.5", "one"])
    def test_bad_seed_refused_before_solve(self, capsys, tmp_path, rand_file,
                                           argv, seed):
        out = tmp_path / "out"
        out.mkdir()
        if argv[0] != "example":
            argv = argv + ["--problem", rand_file, "--out", str(out)]
        assert main(argv + ["--steps", "50", "--paths", "50",
                            "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert "--seed" in captured.err
        assert captured.out == ""      # the command never started
        assert not any(out.iterdir())

    def test_zero_paths_refused_before_solve(self, capsys, rand_file):
        assert main(["simulate", "--problem", rand_file, "--paths", "0"]) == 2
        captured = capsys.readouterr()
        assert "--paths" in captured.err
        assert captured.out == ""      # the command never started


class TestStagedRunner:
    """pipeline runs certify -> solve -> synthesize -> verify with one
    backward pass over the certificate's two equations and the game's."""

    @pytest.mark.parametrize("name", ["rand_problem", "rand_det_problem"])
    def test_pipeline_solves_each_equation_once(self, request, tmp_path,
                                                passes, name):
        path = tmp_path / "p.json"
        save_problem(request.getfixturevalue(name), str(path))
        passes.clear()      # the fixture's draw, when it is built here
        main(["pipeline", "--problem", str(path), "--steps", "200",
              "--paths", "200", "--out", str(tmp_path)])
        assert passes == [("player1", "player2", "game")]

    def test_certify_makes_the_one_pass(self, tmp_path, passes, rand_problem):
        path = tmp_path / "p.json"
        save_problem(rand_problem, str(path))
        passes.clear()      # the fixture's draw, when it is built here
        assert main(["certify", "--problem", str(path), "--steps", "200"]) == 0
        assert passes == [("player1", "player2", "game")]

    def test_det_rep_makes_the_one_pass(self, tmp_path, passes,
                                        rand_det_problem):
        path = tmp_path / "p.json"
        save_problem(rand_det_problem, str(path))
        passes.clear()      # the fixture's draw, when it is built here
        assert main(["det-rep", "--problem", str(path), "--steps", "200"]) == 0
        assert passes == [("player1", "player2", "game")]

    def test_pipeline_cross_checks_noise_free_game(self, capsys, tmp_path,
                                                   rand_det_problem):
        path = tmp_path / "det.json"
        save_problem(rand_det_problem, str(path))
        main(["pipeline", "--problem", str(path), "--steps", "200",
              "--paths", "200"])
        report = equivalence_report(rand_det_problem, SolverConfig(n_steps=200))
        assert f"deterministic representation error {report.cross_error:.3e}" \
            in capsys.readouterr().out


class TestExamples:
    def test_ex4_5(self, capsys):
        assert main(["example", "ex4_5", "--steps", "1000"]) == 0
        out = capsys.readouterr().out
        assert "NOT_CERTIFIED" in out
        assert "-1.0000000000" in out

    def test_ex5_2(self, capsys):
        assert main(["example", "ex5_2", "--steps", "400"]) == 0
        out = capsys.readouterr().out
        assert "regularity failure at t=1" in out
        assert "= x^2" in out

    def test_ex3_4(self, capsys):
        assert main(["example", "ex3_4", "--steps", "200",
                     "--paths", "200"]) == 0
        out = capsys.readouterr().out
        assert "decreasing" in out and "NOT decreasing" not in out

    def test_ex3_2(self, capsys):
        assert main(["example", "ex3_2", "--steps", "200",
                     "--paths", "2000"]) == 0
        assert "consistent" in capsys.readouterr().out

    def test_unknown_name(self):
        with pytest.raises(SystemExit):
            main(["example", "ex9_9"])
