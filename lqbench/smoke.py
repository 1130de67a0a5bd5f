#!/usr/bin/env python3
"""Fast smoke test of the benchmark.

    python3 lqbench/smoke.py

Runs one tiny job of every workload of run.py, untraced and traced, and
checks that the last output line has the schema BENCHMARK.json promises:
exactly the keys correct/attempted/failed/metrics, every end-to-end
(untraced) or per-layer (traced) metric with its unit, finite values.  Then copies
BENCHMARK.json and the benchmark into a directory without the library and
checks that a run there fails without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

from run import WORKLOAD_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 180


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("lqbench", "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--jobs", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(line: str, expected: dict) -> list[str]:
    problems = []
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"top-level keys {sorted(result)}"]
    if result["correct"] is not True:
        problems.append("correct is not true")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"attempted = {result['attempted']!r}")
    if not (isinstance(result["failed"], int) and result["failed"] == 0):
        problems.append(f"failed = {result['failed']!r}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        if set(entry) != {"value", "unit"} or entry["unit"] != unit:
            problems.append(f"{name}: {entry!r}, want unit {unit!r}")
        elif not (isinstance(entry["value"], float) and math.isfinite(entry["value"])):
            problems.append(f"{name}: value {entry['value']!r}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = 0
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            lines = proc.stdout.strip().splitlines()
            problems = [f"exit code {proc.returncode}: {proc.stderr[-500:]}"] \
                if proc.returncode != 0 or not lines else \
                check_result(lines[-1], expected[trace])
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"{workload} trace={trace}: {status}")
            failures += bool(problems)

    bare = os.path.join(HERE, "work", f"smoke-bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "lqbench"),
                        ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run(bare, bench["workloads"][0]["name"], 0)
        printed = proc.stdout.strip().splitlines()
        ok = proc.returncode != 0 and not (printed and printed[-1].startswith("{"))
        print(f"without the library: exit code {proc.returncode}, "
              f"{'no result' if ok else 'FAIL: printed a result'}")
        failures += not ok
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.join(HERE, "work"))
        except OSError:
            pass
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
