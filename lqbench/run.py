#!/usr/bin/env python3
"""Benchmark of the lqgame library.

    python3 lqbench/run.py                 # every workload, each in its own process
    python3 lqbench/run.py --workload riccati_sweep --seed 0 --seconds 50 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and from nowhere else.  A run generates its inputs
from ``--seed`` and runs jobs in a closed loop with one client, in whole
rounds of the workload's job mix, until ``--seconds`` of job time have
passed, checking every job's output.  Set-up (input generation and a
warm-up job) runs five times, spread over the run; ``setup_s`` is the
import time plus their median.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.

With ``--trace 1`` every call into the library is recorded as a span; the
traced loop runs for half of ``--seconds``, then the same jobs run again
untraced, and the difference in jobs per second is the tracing overhead.
Spans are written to ``lqbench/out/`` at the end.
"""

import os
import sys

# BLAS pinned to one thread before numpy loads
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402

import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# lambda_family is not among BENCHMARK.json's workloads: with three, the time
# limit for all runs allows runs of about 34 s, too short to be steady on a
# host whose speed drifts over minutes
WORKLOAD_NAMES = ("riccati_sweep", "mc_verify", "lambda_family")
SETUP_REPEATS = 5
TAIL_BEYOND = 10      # samples the reported tail percentile must leave above it

END_TO_END = {
    "jobs_per_s": "1/s", "latency_p50_s": "s", "latency_tail_s": "s",
    "setup_s": "s", "peak_rss_mb": "MB",
}

# calls the benchmark makes into the library, one span each
SPAN_NAMES = (
    "cli.load_problem", "riccati.certify_A3", "riccati.solve_riccati",
    "riccati.comparison_check", "riccati.solve_lambda_family",
    "synthesis.feedback_gain", "synthesis.game_value", "synthesis.closed_loop",
    "synthesis.mean_state_path", "synthesis.fbsde_residual",
    "evaluation.simulate", "evaluation.estimate_cost",
    "evaluation.verify_saddle", "evaluation.discrete_oracle",
    "deterministic.equivalence_report", "cli.save_solution",
    "cli.load_solution",
)
PER_LAYER = {
    **{f"{name}.busy_s": "s" for name in SPAN_NAMES},
    "bench.job_self_s": "s",
    "riccati.steps": "count",
    "riccati.steps_per_s": "1/s",
    "riccati.solve_failures": "count",
    "riccati.useful_step_frac": "ratio",
    "riccati.family_parallel_eff": "ratio",
    "synthesis.nodes_per_s": "1/s",
    "evaluation.path_steps_per_s.small": "1/s",
    "evaluation.path_steps_per_s.large": "1/s",
    "evaluation.bytes_computed": "B",
    "evaluation.saddle_fail": "count",
    "deterministic.rep_failures": "count",
    "deterministic.riccati_steps": "count",
    "cli.bytes_written": "B",
    "trace.overhead_jobs_per_s": "1/s",
    "trace.overhead_frac": "ratio",
}
RICCATI_SPANS = ("riccati.certify_A3", "riccati.solve_riccati",
                 "riccati.solve_lambda_family")
SYNTHESIS_NODE_SPANS = ("synthesis.feedback_gain", "synthesis.closed_loop",
                        "synthesis.mean_state_path", "synthesis.fbsde_residual")
EVALUATION_MC_SPANS = ("evaluation.simulate", "evaluation.estimate_cost",
                       "evaluation.verify_saddle")


def _ratio(a: float, b: float) -> float:
    return a / b if b > 0 else 0.0


def tail_latency(latencies):
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples above it, or the maximum if that percentile
    would not lie above the median."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def machine_facts() -> dict:
    import numpy
    caches = {}
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                             timeout=10).stdout
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[0].endswith("CACHE_SIZE"):
                caches[parts[0]] = int(parts[1])
    except (OSError, subprocess.SubprocessError, ValueError):
        caches = {"unavailable": True}
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "caches_bytes": caches,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }


def set_up(wl) -> float:
    """Generate the inputs and run the warm-up job; returns the time taken."""
    start = time.perf_counter()
    wl.setup()
    wl.warm_up(spans.Tracer(False))
    return time.perf_counter() - start


def run_jobs(wl, tracer, seconds, counts, n_jobs=None, traced=False, first=0):
    """Closed loop with one client: the next job starts when the previous one
    is checked.  Runs jobs first, first + 1, ...: n_jobs of them, or whole
    rounds of wl.stop_every jobs until `seconds` of job time have passed.
    Returns latencies and failures."""
    latencies, failures = [], []
    busy, i = 0.0, first
    while (i - first < n_jobs if n_jobs is not None
           else busy < seconds or i % wl.stop_every):
        start = time.perf_counter()
        try:
            with tracer.job(i):
                outcome = wl.job(i, tracer)
        except Exception:
            outcome = None
            failures.append((i, [traceback.format_exc()]))
        elapsed = time.perf_counter() - start
        latencies.append(elapsed)
        busy += elapsed
        if outcome is not None:
            try:
                bad = wl.check(i, outcome, counts)
                if traced:
                    wl.traced_extra(i, outcome, counts)
            except Exception:
                bad = [traceback.format_exc()]
            if bad:
                failures.append((i, bad))
        del outcome
        i += 1
    return latencies, failures


def per_layer_metrics(wl, tracer, counts, rate_traced, rate_untraced) -> dict:
    busy = spans.busy_by_name(tracer.spans)
    m = {f"{name}.busy_s": busy.get(name, 0.0) for name in SPAN_NAMES}
    m["bench.job_self_s"] = busy.get("job", 0.0)
    steps = counts["riccati.steps"]
    m["riccati.steps"] = steps
    m["riccati.steps_per_s"] = _ratio(steps, sum(busy.get(s, 0.0) for s in RICCATI_SPANS))
    m["riccati.solve_failures"] = counts["riccati.solve_failures"]
    m["riccati.useful_step_frac"] = _ratio(
        counts["riccati.useful_steps"], steps + counts["deterministic.riccati_steps"])
    m["riccati.family_parallel_eff"] = _ratio(
        counts["riccati.family_serial_s"],
        wl.threads * busy.get("riccati.solve_lambda_family", 0.0))
    m["synthesis.nodes_per_s"] = _ratio(
        counts["synthesis.nodes"], sum(busy.get(s, 0.0) for s in SYNTHESIS_NODE_SPANS))
    for size in ("small", "large"):
        group_busy = spans.busy_by_name(tracer.spans, size)
        m[f"evaluation.path_steps_per_s.{size}"] = _ratio(
            counts[f"evaluation.path_steps.{size}"],
            sum(group_busy.get(s, 0.0) for s in EVALUATION_MC_SPANS))
    for name in ("evaluation.bytes_computed", "evaluation.saddle_fail",
                 "deterministic.rep_failures", "deterministic.riccati_steps",
                 "cli.bytes_written"):
        m[name] = counts[name]
    m["trace.overhead_jobs_per_s"] = rate_untraced - rate_traced
    m["trace.overhead_frac"] = _ratio(rate_untraced - rate_traced, rate_untraced)
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 n_jobs=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "lqgame", "__init__.py")):
        print(f"error: no lqgame sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import numpy  # noqa: F401
    import lqgame
    import workloads
    import_s = time.perf_counter() - start
    if not os.path.abspath(lqgame.__file__).startswith(SRC + os.sep):
        print(f"error: lqgame imported from {lqgame.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    wl_cls = workloads.WORKLOADS[name]
    os.environ["LQGAME_THREADS"] = str(wl_cls.threads)
    workroot = os.path.join(HERE, "work")
    workdir = os.path.join(workroot, f"{name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = wl_cls(seed, workdir)
        counts = defaultdict(float)
        if trace:
            setup_times = [set_up(wl)]
            tracer = spans.Tracer(True)
            lat, failures = run_jobs(wl, tracer, seconds / 2, counts,
                                     n_jobs=n_jobs, traced=True)
            lat_plain, fail_plain = run_jobs(wl, spans.Tracer(False), 0,
                                             defaultdict(float), n_jobs=len(lat))
            rate_traced = len(lat) / sum(lat)
            rate_untraced = len(lat_plain) / sum(lat_plain)
            metrics = per_layer_metrics(wl, tracer, counts, rate_traced,
                                        rate_untraced)
            units = PER_LAYER
            out_dir = os.path.join(HERE, "out")
            os.makedirs(out_dir, exist_ok=True)
            span_file = os.path.join(out_dir, f"spans-{name}-seed{seed}.json")
            tracer.dump(span_file)
            attempted = len(lat) + len(lat_plain)
            failures += fail_plain
            print(f"# traced {len(lat)} jobs at {rate_traced:.4f}/s, same jobs "
                  f"untraced at {rate_untraced:.4f}/s; "
                  f"{len(tracer.spans)} spans in {os.path.relpath(span_file, ROOT)}")
        else:
            # set-up runs again at the start of each of SETUP_REPEATS equal
            # shares of the job time, so that its median samples the host's
            # drifting speed over the whole run, as the job metrics do
            lat, failures, setup_times = [], [], []
            for r in range(1, SETUP_REPEATS + 1):
                setup_times.append(set_up(wl))
                share = (None if n_jobs is None
                         else n_jobs if r == SETUP_REPEATS else 0)
                until = seconds * r / SETUP_REPEATS
                seg_lat, seg_fail = run_jobs(wl, spans.Tracer(False),
                                             until - sum(lat), counts,
                                             n_jobs=share, first=len(lat))
                lat += seg_lat
                failures += seg_fail
            setup_s = import_s + statistics.median(setup_times)
            attempted = len(lat)
            tail, pct, beyond = tail_latency(lat)
            metrics = {
                "jobs_per_s": len(lat) / sum(lat),
                "latency_p50_s": statistics.median(lat),
                "latency_tail_s": tail,
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                * 1024 / 1e6,
            }
            units = END_TO_END
            print(f"# latency_tail_s is p{pct:.1f} of {attempted} jobs, "
                  f"{beyond} samples beyond it")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(workroot)
        except OSError:
            pass        # another run still uses it

    # a job whose only failed checks are statistical verdicts is counted in
    # fail_frac, but is not a failed operation
    hard = [i for i, reasons in failures
            if not all(isinstance(r, workloads.Statistical) for r in reasons)]
    for i, reasons in failures:
        for reason in reasons:
            print(f"# job {i} failed: {reason.strip()}", file=sys.stderr)
    details = {
        "workload": name, "seed": seed, "trace": trace,
        "fail_frac": len(failures) / attempted,
        "statistical_fail_jobs": len(failures) - len(hard),
        "setup_repeats_s": setup_times, "import_s": import_s,
        "latencies_s": [round(v, 6) for v in lat],
        "inputs": wl.describe(), "machine": machine_facts(),
        "LQGAME_THREADS": os.environ["LQGAME_THREADS"],
    }
    print("# details " + json.dumps(details, default=list))
    for key, value in metrics.items():
        print(f"# {key:40s} {value:16.6g} {units[key]}")
    print(json.dumps({
        "correct": not hard,
        "attempted": attempted,
        "failed": len(hard),
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Run every workload in its own process and print one table."""
    results, fail_frac, status = {}, {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        fail_frac[name] = next(json.loads(line[len("# details "):])["fail_frac"]
                               for line in lines if line.startswith("# details "))
    names = list(PER_LAYER if trace else END_TO_END)
    print(f"{'metric':40s} {'unit':6s}" + "".join(f"{w:>16s}" for w in results))
    for key in names:
        row = "".join(f"{r['metrics'][key]['value']:16.6g}" for r in results.values())
        unit = (PER_LAYER if trace else END_TO_END)[key]
        print(f"{key:40s} {unit:6s}{row}")
    row = "".join(f"{fail_frac[w]:16.6g}" for w in results)
    print(f"{'fail_frac':40s} {'ratio':6s}{row}")
    if not all(r["correct"] for r in results.values()):
        status = 1
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=None,
                        help="run exactly this many jobs instead of --seconds")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace), args.jobs)


if __name__ == "__main__":
    sys.exit(main())
