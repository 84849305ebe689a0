"""Smoke test of the benchmark at tiny sizes.

    python3 benchmarks/smoke.py

Runs every workload in BENCHMARK.json at ``--size tiny``, untraced and
traced, each in a process of its own.  It asserts that:

* each run exits 0 with a correct result that names exactly the metrics
  BENCHMARK.json lists for its mode;
* the exact counts hold: 35 forwards per stochastic predict and 1 per MAP
  predict, 85 forwards per stability report, no backward pass outside
  ``train``, and as many training epochs as ``metrics_train.csv`` rows;
* counts repeat exactly when a traced run is made again;
* in a directory holding only BENCHMARK.json and the benchmark, the run
  exits non-zero without printing a result.

Exits 0 when every assertion holds.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNT_SUFFIXES = ("_calls", "_checks", "training.epochs", "stability.sweep_forwards")


def bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "benchmarks", "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result_of(proc: subprocess.CompletedProcess, what: str) -> tuple[dict, dict]:
    if proc.returncode != 0:
        raise AssertionError(f"{what}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


def counts(metrics: dict) -> dict:
    return {k: v["value"] for k, v in metrics.items()
            if k.endswith(COUNT_SUFFIXES) or "forwards_per_" in k}


def check(spec: dict) -> list[str]:
    errors = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            what = f"{wl} --trace {trace}"
            result, record = result_of(bench(wl, trace), what)
            m = {k: v["value"] for k, v in result["metrics"].items()}
            expected = {e["name"] for e in spec[key]}
            if set(m) != expected:
                errors.append(f"{what}: missing {sorted(expected - set(m))}, "
                              f"unexpected {sorted(set(m) - expected)}")
                continue
            if not result["correct"] or result["attempted"] < 1:
                errors.append(f"{what}: not correct: {record['problems']}")
            if trace == 0:
                zero = [k for k, v in m.items() if not v > 0]
                if zero:
                    errors.append(f"{what}: end-to-end metrics not > 0: {zero}")
                continue
            want = {"tensor.backward_calls": None if wl == "train" else 0,
                    "stability.forwards_per_report": 85 if wl == "stability" else None,
                    "model.forwards_per_predict": 0 if wl == "stability" else 35,
                    "model.map.forwards_per_predict": 0 if wl == "stability" else 1}
            if wl == "train":
                epochs = [q["epochs"] for k, q in record["quality"].items()
                          if k.startswith("train:")]
                want["training.epochs"] = epochs[0]
            for name, value in want.items():
                if value is not None and m[name] != value:
                    errors.append(f"{what}: {name} = {m[name]}, expected {value}")
            if wl == "evaluate":
                again, _ = result_of(bench(wl, trace), what + " (again)")
                if counts(again["metrics"]) != counts(result["metrics"]):
                    errors.append(f"{what}: counts differ between two runs")
    return errors


def check_bare_directory() -> list[str]:
    """Only BENCHMARK.json and the benchmark: must fail without a result."""
    bare = os.path.join(ROOT, ".bench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "benchmarks"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("evaluate", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["bare directory: the run did not fail as it should"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    errors = check(spec) + check_bare_directory()
    for line in errors:
        print(f"FAIL {line}", file=sys.stderr)
    print("smoke test " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
