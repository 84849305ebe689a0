"""End-to-end and per-layer benchmark of the vroute CLI.

Run from the root of a source checkout:

    python3 benchmarks/run.py --workload train|evaluate|stability \
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Every workload drives the real user path in-process: ``vroute.cli.main``
called with one argument list after another, in a closed loop with one
client, no threads and no subprocesses.  The workload seed reaches the
program only through the config file each call reads.

With ``--trace 0`` the run measures the end-to-end metrics of
``BENCHMARK.json`` with the package unmodified, in seconds corrected for the
host's speed (see hostclock.py).  With ``--trace 1`` it runs
one pass untraced and the same pass under :class:`tracer.Tracer`, and
reports the per-layer metrics plus the tracing overhead.  Either way every
call's outputs are checked; the last line of standard output is the result
object, and the line before it a record of the environment, the arithmetic
digest and the quality numbers, which is also written under
``.bench_work/records``.  See ``benchmarks/README.md`` for why each workload
exists.
"""
from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse                                                  # noqa: E402
import contextlib                                                # noqa: E402
import csv                                                       # noqa: E402
import ctypes                                                    # noqa: E402
import dataclasses                                               # noqa: E402
import glob                                                      # noqa: E402
import hashlib                                                   # noqa: E402
import importlib                                                 # noqa: E402
import json                                                      # noqa: E402
import math                                                      # noqa: E402
import os                                                        # noqa: E402
import platform                                                  # noqa: E402
import resource                                                  # noqa: E402
import shutil                                                    # noqa: E402
import statistics                                                # noqa: E402
import sys                                                       # noqa: E402

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RECORDS = os.path.join(ROOT, ".bench_work", "records")
sys.path.insert(0, HERE)

from hostclock import HostClock, reference_loop                  # noqa: E402
from tracer import STOCHASTIC, VARIANTS, Tracer                  # noqa: E402

WORKLOADS = ("train", "evaluate", "stability")

# Set-up trains every variant at this budget.  It is repeated and the median
# reported as setup_s; the last repetition's checkpoints feed evaluate and
# stability.  The same budget is stated in BENCHMARK.json.
SETUP_TRAIN = {"epochs_stage1": 4, "epochs_stage2": 1}
SETUP_REPEATS = 3

# After the timed loop, metrics that the workload's own calls do not produce
# are measured on a few fixed calls, CROSS_CHECK_PASSES times over (trace 0
# only, never inside the trace).
CROSS_CHECK_PASSES = 2
CROSS_CHECK = {
    "predict": [("eval", "vglr_mf"), ("ood", "vglr_mf"),
                ("eval", "vtsr"), ("ood", "vtsr")],
    "stability": [("stability", "map"), ("stability", "vtsr")],
    "sweep": [("sweep-temp", "vglr_fc"), ("sweep-temp", "vtsr"),
              ("sweep-temp", "map")],
}

# Auto layer selection attaches the stochastic routers where the seed's
# stage-1 model is most brittle.  Seeds that pick block 0 make every stage-2
# step tape and backpropagate the whole network, about 20% slower per sample
# than seeds that pick [2, 3], the most common choice.  Every config pins
# [2, 3] so that runs on different seeds do the same work.
LAYERS = [2, 3]

# The tiny size shrinks data and epochs only: model dimensions, S=35 and the
# perturbation grid stay at their defaults, so the exact counts still hold.
TINY_DATA = {"n_train": 512, "n_val": 100, "n_test": 100, "n_ood": 100}
TINY_TRAIN = {"epochs_stage1": 3, "epochs_stage2": 1, "batch_size": 16}

# Four balanced classes: test accuracy must clear chance (0.25) by a margin.
ACCURACY_FLOOR = 0.35

MANIFESTS = {"train": "manifest_train.json", "eval": "manifest_eval.json",
             "ood": "manifest_ood.json", "stability": "manifest_stability.json",
             "sweep-temp": "manifest_sweep.json"}


def fail(message: str) -> None:
    print(f"benchmark error: {message}", file=sys.stderr)
    sys.exit(2)


def import_vroute() -> dict:
    """Import every vroute module from the checkout's ``src`` tree."""
    src = os.path.join(ROOT, "src")
    pkg = os.path.join(src, "vroute")
    if not os.path.isfile(os.path.join(pkg, "cli.py")):
        fail(f"no vroute sources under {src}; run from a source checkout")
    sys.path.insert(0, src)
    modules = {"vroute": importlib.import_module("vroute")}
    if os.path.dirname(os.path.abspath(modules["vroute"].__file__)) != pkg:
        fail(f"imported vroute from {modules['vroute'].__file__}, not {pkg}")
    for path in sorted(glob.glob(os.path.join(pkg, "*.py"))):
        name = os.path.splitext(os.path.basename(path))[0]
        if name != "__init__":
            modules[name] = importlib.import_module(f"vroute.{name}")
    return modules


# --------------------------------------------------------------------------
# output checks
# --------------------------------------------------------------------------


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _non_finite(rows: list[dict]) -> bool:
    for row in rows:
        for value in row.values():
            try:
                if not math.isfinite(float(value)):
                    return True
            except ValueError:
                pass
    return False


def expected_artifacts(cmd: str, variant: str | None, cfg) -> list[str]:
    if cmd == "train":
        names = ["metrics_train.csv", "config_resolved.json"]
        names += [f"model_{v}.npz" for v in cfg.variants]
        if cfg.layers == "auto" and any(v != "map" for v in cfg.variants):
            names.append("ranking.csv")
        return names
    return {"eval": [f"eval_{variant}.json", f"eval_{variant}.csv",
                     f"eval_bins_{variant}.csv"],
            "ood": [f"ood_{variant}.csv", f"ood_{variant}.json"],
            "stability": [f"stability_{variant}.csv"],
            "sweep-temp": ["sweep_temp.csv"]}[cmd]


def check_call(cmd: str, variant: str | None, cfg) -> tuple[list[str], dict, str]:
    """Problems found, quality numbers and the digest of the CSV outputs."""
    out_dir = cfg.out_dir
    problems: list[str] = []
    names = expected_artifacts(cmd, variant, cfg)
    missing = [n for n in names + [MANIFESTS[cmd]]
               if not os.path.isfile(os.path.join(out_dir, n))]
    if missing:
        return [f"missing {', '.join(missing)}"], {}, ""
    with open(os.path.join(out_dir, MANIFESTS[cmd]), encoding="utf-8") as fh:
        manifest = json.load(fh)
    listed = {f["path"]: f["sha256"] for f in manifest["files"]}
    for name in names:
        if name not in listed:
            problems.append(f"{name} not in manifest")
        elif listed[name] != sha256_file(os.path.join(out_dir, name)):
            problems.append(f"{name} sha256 does not match the manifest")
    csv_names = sorted(n for n in names if n.endswith(".csv"))
    tables = {n: read_csv(os.path.join(out_dir, n)) for n in csv_names}
    for name, rows in tables.items():
        if not rows:
            problems.append(f"{name} has no rows")
        elif _non_finite(rows):
            problems.append(f"{name} holds a non-finite number")
    if problems:
        return problems, {}, ""
    digest = hashlib.sha256()
    for name in csv_names:
        digest.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            digest.update(fh.read())

    quality: dict = {}
    if cmd == "train":
        rows = tables["metrics_train.csv"]
        stage1 = [r for r in rows if r["stage"] == "stage1"]
        best = min(stage1, key=lambda r: float(r["val_nll"]))
        if float(best["val_acc"]) <= ACCURACY_FLOOR:
            problems.append(f"stage-1 val accuracy {best['val_acc']} near chance")
        quality["epochs"] = len(rows)
        for stage, v in sorted({(r["stage"], r["variant"]) for r in rows}):
            mine = [r for r in rows if r["stage"] == stage and r["variant"] == v]
            top = min(mine, key=lambda r: float(r["val_nll"]))
            quality[f"{stage}.{v}"] = {"epochs": len(mine),
                                       "best_val_nll": float(top["val_nll"]),
                                       "best_val_acc": float(top["val_acc"])}
    elif cmd == "eval":
        row = tables[f"eval_{variant}.csv"][0]
        quality = {k: float(row[k]) for k in ("accuracy", "nll", "ece")}
        if quality["accuracy"] <= ACCURACY_FLOOR:
            problems.append(f"test accuracy {quality['accuracy']} near chance")
        if not 0.0 <= quality["ece"] <= 1.0:
            problems.append(f"ECE {quality['ece']} outside [0, 1]")
    elif cmd == "ood":
        for row in tables[f"ood_{variant}.csv"]:
            auroc = float(row["auroc"])
            if not 0.0 <= auroc <= 1.0:
                problems.append(f"AUROC {auroc} outside [0, 1]")
            quality[f"{row['signal']}.{row['domain']}"] = auroc
        if {r["domain"] for r in tables[f"ood_{variant}.csv"]} != {"near", "far"}:
            problems.append("OoD rows do not cover both shifted domains")
    elif cmd == "stability":
        cells = [float(r["mean_jaccard"]) for r in tables[f"stability_{variant}.csv"]]
        if any(not 0.0 <= j <= 1.0 for j in cells):
            problems.append("Jaccard outside [0, 1]")
        quality = {"mean_jaccard": statistics.fmean(cells), "cells": len(cells)}
    else:
        accs = [float(r["accuracy"]) for r in tables["sweep_temp.csv"]]
        quality = {"mean_accuracy": statistics.fmean(accs), "rows": len(accs)}
    return problems, quality, digest.hexdigest()


# --------------------------------------------------------------------------
# calls
# --------------------------------------------------------------------------


class Client:
    """Issues CLI calls back to back, checks each and keeps the books."""

    def __init__(self, cli, config_mod):
        self.cli = cli
        self.config_mod = config_mod
        self.clock = HostClock()
        self.problems: list[str] = []     # outputs claimed good but wrong
        self.failures: list[str] = []     # calls that did not succeed
        self.digests: dict = {}
        self.quality: dict = {}

    def _main(self, argv) -> int:
        try:
            return self.cli.main(argv)
        except SystemExit as exc:             # argparse rejects the call
            return exc.code if isinstance(exc.code, int) else 1

    def call(self, config_path: str, cmd: str, variant: str | None = None):
        """Run one call; returns (ok, raw seconds, corrected seconds, config)."""
        cfg = self.config_mod.load_config(config_path)
        argv = [cmd, "--config", config_path]
        if variant:
            argv += ["--variant", variant]
        with contextlib.redirect_stdout(sys.stderr):
            rc, raw, corrected = self.clock.time(self._main, argv)
        tag = f"{cmd} {variant or 'all variants'} seed={cfg.seed}"
        problems, quality, digest = ([f"exit {rc}"], {}, "") if rc != 0 else \
            check_call(cmd, variant, cfg)
        if not problems:
            # Same command, variant and config (bar out_dir): same bytes.
            settings = self.config_mod.config_hash(
                dataclasses.replace(cfg, out_dir=""))
            key = f"{cmd}:{variant or 'all'}:{settings[:12]}"
            if self.digests.setdefault(key, digest) != digest:
                problems = ["CSV outputs differ between passes"]
            self.quality[key] = quality
        if problems:
            self.failures.append(f"{tag}: {'; '.join(problems)}")
            if rc == 0:
                self.problems.append(f"{tag}: {'; '.join(problems)}")
        return not problems, raw, corrected, cfg


def work_units(cmd: str, cfg) -> float:
    """Samples, rows or tokens that one successful call processed."""
    d = cfg.data
    if cmd == "train":
        return len(read_csv(os.path.join(cfg.out_dir, "metrics_train.csv"))) * d.n_train
    if cmd == "eval":
        return d.n_test
    if cmd == "ood":
        return d.n_test + 2 * d.n_ood
    if cmd == "stability":
        p = cfg.perturbation
        return cfg.model.num_blocks * len(p.gamma_levels) * p.repeats * d.n_test
    rows = read_csv(os.path.join(cfg.out_dir, "sweep_temp.csv"))
    return len(rows) * d.n_test


class Tally:
    """Work done and time taken per (command, variant), over repeated passes.

    A rate is one pass's work over the sum of each call's median time across
    passes, so a burst of load that slows one call in one pass does not move
    it.  Failed calls count their time but no work.  Rates use host-corrected
    seconds (see hostclock.py); the raw ones go into the run record.
    """

    RATE = {"train": "train_samples_per_s", "eval": "predict_rows_per_s",
            "ood": "predict_rows_per_s", "stability": "stability_tokens_per_s",
            "sweep-temp": "sweep_rows_per_s"}

    def __init__(self):
        self.calls: dict[tuple, list] = {}
        self.attempted = 0
        self.failed = 0

    def add(self, cmd, variant, ok, raw, corrected, units):
        self.calls.setdefault((cmd, variant), []).append(
            (raw, corrected, units if ok else 0.0))
        self.attempted += 1
        self.failed += 0 if ok else 1

    def rates(self, raw: bool = False) -> dict:
        units: dict[str, float] = {}
        seconds: dict[str, float] = {}
        for (cmd, _), samples in self.calls.items():
            metric = self.RATE[cmd]
            seconds[metric] = seconds.get(metric, 0.0) + statistics.median(
                c[0] if raw else c[1] for c in samples)
            units[metric] = units.get(metric, 0.0) + statistics.median(
                c[2] for c in samples)
        return {m: units[m] / seconds[m] for m in seconds if seconds[m] > 0}


def run_calls(client: Client, tally: Tally, config_path: str, calls) -> float:
    """Issue ``calls`` in order; returns their summed corrected seconds."""
    total = 0.0
    for cmd, variant in calls:
        ok, raw, corrected, cfg = client.call(config_path, cmd, variant)
        units = work_units(cmd, cfg) if ok else 0.0
        tally.add(cmd, variant, ok, raw, corrected, units)
        total += corrected
    return total


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


def write_config(path: str, seed: int, out_dir: str, train: dict | None,
                 tiny: bool) -> str:
    payload: dict = {"seed": seed, "out_dir": out_dir, "variants": list(VARIANTS),
                     "layers": list(LAYERS)}
    if tiny:
        payload["data"] = dict(TINY_DATA)
    if train:
        payload["train"] = dict(train)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return path


def timed_calls(workload: str) -> list[tuple[str, str | None]]:
    if workload == "train":
        return [("train", None)]
    cmds = ("eval", "ood") if workload == "evaluate" else ("stability", "sweep-temp")
    return [(cmd, v) for v in VARIANTS for cmd in cmds]


def cross_check_calls(workload: str) -> list:
    """Calls that measure the rate metrics the workload's own calls lack."""
    own = {"train": {"train"}, "evaluate": {"predict"},
           "stability": {"stability", "sweep"}}[workload]
    return [c for key, calls in CROSS_CHECK.items() if key not in own
            for c in calls]


def analytic_macs_vs_map(mods) -> dict:
    """Analytic router MACs per token over the MAP router's D x N, at the
    lab's default model size and S."""
    eff, model_cfg = mods["efficiency"], mods["model"].ModelConfig()
    router = mods["config"].RouterSettings()
    spec = eff.ArchSpec(layers=1, num_experts=model_cfg.num_experts,
                        hidden_dim=model_cfg.hidden_dim,
                        inference_width=model_cfg.phi_hidden,
                        samples=router.eval_samples,
                        base_active_params=1.0, base_macs_per_token=1.0)
    base = model_cfg.hidden_dim * model_cfg.num_experts
    return {v: eff.macs_per_token(spec, v) / base
            for v in ("vglr_mf", "vglr_fc", "vtsr")}


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"git_commit": git_commit(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": blas_threads(np), "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)), "seed": seed}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_threads(np) -> int | str:
    """Thread count of the OpenBLAS that numpy bundles, if it is one."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def run(args) -> dict:
    tiny = args.size == "tiny"
    mods = import_vroute()
    import_raw = time.perf_counter() - _PROCESS_START
    import_s = HostClock.correct(import_raw, [reference_loop() for _ in range(3)])
    client = Client(mods["cli"], mods["config"])
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return _run(args, mods, client, work, import_s, tiny)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, mods, client, work, import_s, tiny) -> dict:
    # Set-up: short-budget training of all six variants, repeated.
    setup_budget = TINY_TRAIN if tiny else SETUP_TRAIN
    setup_tally = Tally()
    setup_s = []
    for k in range(1 if args.trace else SETUP_REPEATS):
        setup_cfg = write_config(os.path.join(work, f"setup{k}.json"), args.seed,
                                 os.path.join(work, f"setup{k}"), setup_budget, tiny)
        setup_s.append(import_s + run_calls(client, setup_tally, setup_cfg,
                                            [("train", None)]))
    if setup_tally.failed:
        client.problems.append("set-up training failed")
    if args.workload == "train":
        cfg_path = write_config(os.path.join(work, "train.json"), args.seed,
                                os.path.join(work, "train"),
                                TINY_TRAIN if tiny else None, tiny)
    else:
        cfg_path = setup_cfg
    calls = timed_calls(args.workload)

    record: dict = {"workload": args.workload, "size": args.size,
                    "trace": args.trace, "environment": environment(args.seed),
                    "setup_train_budget": setup_budget}
    metrics: dict = {}
    tally = Tally()
    if args.trace:
        untraced = run_calls(client, Tally(), cfg_path, calls)
        with Tracer(mods) as tracer:
            traced = run_calls(client, tally, cfg_path, calls)
        metrics.update(tracer.metrics(analytic_macs_vs_map(mods)))
        metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
        metrics["fail_frac"] = (tally.failed / tally.attempted, "ratio")
        record["measured_vs_analytic"] = {
            v: {"route_cost_vs_map": metrics[f"routers.{v}.cost_vs_map"][0],
                "macs_vs_map": metrics.get(f"efficiency.{v}.macs_vs_map", (None,))[0]}
            for v in STOCHASTIC}
        record["route_s_per_row"] = tracer.route_cost_per_row()
        record["traced_s"], record["untraced_s"] = traced, untraced
        spans = os.path.join(RECORDS, f"{args.workload}-seed{args.seed}-spans.jsonl")
        os.makedirs(RECORDS, exist_ok=True)
        with open(spans, "w", encoding="utf-8") as fh:
            for line in tracer.span_lines():
                fh.write(json.dumps(line) + "\n")
    else:
        t_loop = time.perf_counter()
        passes = 0
        while passes == 0 or time.perf_counter() - t_loop < args.seconds:
            run_calls(client, tally, cfg_path, calls)
            passes += 1
        cross = Tally()
        for _ in range(CROSS_CHECK_PASSES):
            run_calls(client, cross, cfg_path, cross_check_calls(args.workload))
        if cross.failed:
            client.problems.append("cross-check calls failed")
        rates = {**setup_tally.rates(), **cross.rates(), **tally.rates()}
        metrics["setup_s"] = (statistics.median(setup_s), "s")
        for name in ("train_samples_per_s", "predict_rows_per_s",
                     "stability_tokens_per_s", "sweep_rows_per_s"):
            metrics[name] = (rates.get(name, 0.0), "1/s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        record["passes"] = passes
        record["setup_s_samples"] = setup_s
        record["fail_frac"] = tally.failed / tally.attempted
        record["raw_rates"] = {**setup_tally.rates(raw=True),
                               **cross.rates(raw=True), **tally.rates(raw=True)}
        record["rate_sources"] = {
            "timed": sorted(tally.rates()), "cross_check": sorted(cross.rates()),
            "setup": sorted(set(setup_tally.rates()) - set(tally.rates()))}

    record["attempted"], record["failed"] = tally.attempted, tally.failed
    record["failures"] = client.failures
    record["problems"] = client.problems
    record["digest"] = hashlib.sha256(
        json.dumps(client.digests, sort_keys=True).encode()).hexdigest()
    record["digests"] = client.digests
    record["quality"] = client.quality
    return {"record": record, "metrics": metrics,
            "correct": not client.problems, "attempted": tally.attempted,
            "failed": tally.failed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks data and epochs for a smoke run")
    args = parser.parse_args(argv)
    out = run(args)
    record = out["record"]
    for name, (value, unit) in sorted(out["metrics"].items()):
        print(f"{name:40s} {value:>16.6g} {unit}", file=sys.stderr)
    for line in record["failures"]:
        print(f"failed call: {line}", file=sys.stderr)
    os.makedirs(RECORDS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RECORDS, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": out["correct"], "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(out["metrics"].items())}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
