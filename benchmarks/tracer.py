"""Per-layer tracing of vroute, installed from outside the package.

The tracer wraps vroute's public entry points in place for the duration of
a ``with Tracer(vroute_modules):`` block and restores them on exit, so an
untraced run executes the package unmodified.  Two kinds of hook exist:

* spans, recorded one per call with (name, call id, parent, start, end),
  around layer boundaries that run at most a few tens of thousands of times
  per workload (CLI calls, forwards, routing, optimiser steps, ...);
* counters, which keep only a call count and a total time, for the tape
  ops, the finite guard, the RNG and the samplers, which run about 10^6
  times per training run.  A counter times only its outermost call, so
  nested calls (``derive_from_bytes`` calling ``derive``) are not counted
  twice.

A module-level function is rebound in every vroute module that imported it
by name, since ``from .model import predict_with_uncertainty`` makes a
binding of its own.  :meth:`Tracer.metrics` turns the spans and counters
into the per-layer metrics listed in ``BENCHMARK.json``.
"""
from __future__ import annotations

import inspect
import time

STOCHASTIC = ("temp_scale", "mc_dropout", "vglr_mf", "vglr_fc", "vtsr")
VARIANTS = ("map",) + STOCHASTIC

# (span name, module, function) for module-level functions.
_FUNCTION_SPANS = (
    ("cli.main", "cli", "main"),
    ("data.generate", "data", "generate_domain"),
    ("checkpoint.save", "checkpoint", "save_checkpoint"),
    ("checkpoint.load", "checkpoint", "load_checkpoint"),
    ("config.manifest", "config", "write_manifest"),
    ("experiment.run_training", "experiment", "run_training"),
    ("experiment.select_layers", "experiment", "select_layers"),
    ("experiment.build_splits", "experiment", "build_splits"),
    ("experiment.build_suite", "experiment", "build_suite"),
    ("experiment.evaluate_calibration", "experiment", "evaluate_calibration"),
    ("experiment.ood_detection_rows", "experiment", "ood_detection_rows"),
    ("training.stage1", "training", "stage1_train"),
    ("training.stage2", "training", "stage2_train"),
    ("training.val", "training", "predictive_nll_acc"),
    ("model.predict", "model", "predict_with_uncertainty"),
    ("stability.report", "stability", "layerwise_stability"),
    ("stability.sweep", "stability", "fixed_temperature_layer_sweep"),
    ("metrics.calibration", "metrics", "calibration_report"),
    ("metrics.detection", "metrics", "detection_report"),
)

# (span name, module, class, method) for methods wrapped on the class.
_METHOD_SPANS = (
    ("model.forward", "model", "MoEClassifier", "forward"),
    ("model.moe_layer", "model", "MoELayer", "forward"),
    ("tensor.backward", "tensor", "Tensor", "backward"),
    ("optim.step", "optim", "Adam", "step"),
    ("optim.step", "optim", "Sgd", "step"),
    ("config.manifest", "config", "RunManifest", "add_file"),
)

# Selection samplers.  ``_sample_k_from_logits`` is the k-without-replacement
# sampler production routing uses, so it is hooked alongside the public ones.
_SELECT_FUNCTIONS = ("top_k_mask", "gumbel_top_k", "sample_k_without_replacement",
                     "_sample_k_from_logits")
_RNG_DERIVE = ("derive", "derive_from_bytes")
_RNG_DRAW = ("normal", "uniform", "gumbel", "permutation", "integers")


def _route_info(args, kwargs):
    router, u = args[0], args[1]
    mode = args[2] if len(args) > 2 else kwargs.get("mode")
    return (getattr(router, "variant", "?"), mode, int(u.shape[0]))


def _predict_info(args, kwargs):
    model = args[0]
    stochastic = any(blk.moe.router.variant != "map" for blk in model.blocks)
    return "stochastic" if stochastic else "map"


class Tracer:
    """Context manager that hooks vroute and aggregates what it sees."""

    def __init__(self, modules: dict):
        self.modules = modules          # short name -> imported vroute module
        self.spans: list[list] = []     # [name, call, parent, start, end, info, ok]
        self.counters: dict[str, list] = {}
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- hooks ---------------------------------------------------------------

    def _span(self, name, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            call = spans[stack[0]][1] if stack else idx
            rec = [name, call, parent, 0.0, 0.0,
                   info(args, kwargs) if info else None, False]
            spans.append(rec)
            stack.append(idx)
            rec[3] = clock()
            try:
                out = fn(*args, **kwargs)
                rec[6] = True
                return out
            finally:
                rec[4] = clock()
                stack.pop()

        return wrapper

    def _counter(self, name, fn):
        stat = self.counters.setdefault(name, [0, 0.0, 0])   # calls, s, depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stat[0] += 1
            if stat[2]:
                return fn(*args, **kwargs)
            stat[2] = 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                stat[1] += clock() - t0
                stat[2] = 0

        return wrapper

    def _patch_function(self, module, attr, make):
        """Rebind ``module.attr`` wherever vroute bound it; skip it if absent."""
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapped = make(original)
        for mod in self.modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def _patch_method(self, cls, attr, make):
        original = cls.__dict__.get(attr)
        if original is None:
            return
        self._patches.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def __enter__(self):
        m = self.modules
        for name, mod, fn in _FUNCTION_SPANS:
            self._patch_function(m.get(mod), fn, lambda f, n=name: self._span(
                n, f, _predict_info if n == "model.predict" else None))
        for name, mod, cls, meth in _METHOD_SPANS:
            klass = getattr(m.get(mod), cls, None)
            if klass is not None:
                self._patch_method(klass, meth, lambda f, n=name: self._span(n, f))
        # Every router class that defines its own ``route``.
        for _, klass in inspect.getmembers(m["routers"], inspect.isclass):
            if klass.__module__ == m["routers"].__name__ and "route" in vars(klass):
                self._patch_method(klass, "route", lambda f: self._span(
                    "routers.route", f, _route_info))
        for fn in _SELECT_FUNCTIONS:
            self._patch_function(m["routers"], fn,
                                 lambda f: self._counter("routers.select", f))
        # Tape ops are the tensor functions that build a result node.
        tensor = m["tensor"]
        for key, value in list(vars(tensor).items()):
            if (inspect.isfunction(value) and not key.startswith("_")
                    and value.__module__ == tensor.__name__
                    and "_result" in value.__code__.co_names):
                self._patch_function(tensor, key,
                                     lambda f: self._counter("tensor.op", f))
        self._patch_function(tensor, "_check_finite",
                             lambda f: self._counter("tensor.finite_check", f))
        rng_cls = m["rng"].RngStream
        for meth in _RNG_DERIVE:
            self._patch_method(rng_cls, meth, lambda f: self._counter("rng.derive", f))
        for meth in _RNG_DRAW:
            self._patch_method(rng_cls, meth, lambda f: self._counter("rng.draw", f))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    # -- aggregation -----------------------------------------------------------

    def _totals(self):
        """name -> [calls, total s, self s]; self excludes direct child spans."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[2] >= 0:
                child[rec[2]] += rec[4] - rec[3]
        out: dict[str, list] = {}
        for i, rec in enumerate(self.spans):
            agg = out.setdefault(rec[0], [0, 0.0, 0.0])
            dur = rec[4] - rec[3]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur - child[i]
        return out

    def _forwards_under(self, parent_name: str, info=None) -> tuple[int, int]:
        """(parents that completed, forwards directly under them)."""
        parents = {i for i, r in enumerate(self.spans)
                   if r[0] == parent_name and r[6] and (info is None or r[5] == info)}
        forwards = sum(1 for r in self.spans
                       if r[0] == "model.forward" and r[2] in parents)
        return len(parents), forwards

    def route_cost_per_row(self) -> dict:
        """Seconds per routed row of completed eval-mode calls, per variant."""
        acc: dict[str, list] = {}
        for r in self.spans:
            if r[0] == "routers.route" and r[6] and r[5][1] == "eval":
                a = acc.setdefault(r[5][0], [0.0, 0])
                a[0] += r[4] - r[3]
                a[1] += r[5][2]
        return {v: s / rows for v, (s, rows) in acc.items() if rows}

    def metrics(self, analytic_macs_vs_map: dict) -> dict:
        """Per-layer metric name -> (value, unit)."""
        tot = self._totals()

        def calls(name):
            return tot.get(name, [0, 0.0, 0.0])[0]

        def secs(name):
            return tot.get(name, [0, 0.0, 0.0])[1]

        def self_s(name):
            return tot.get(name, [0, 0.0, 0.0])[2]

        out = {}
        for name, calls_name in (("tensor.op", "tensor.op_calls"),
                                 ("tensor.finite_check", "tensor.finite_checks"),
                                 ("rng.derive", "rng.derive_calls"),
                                 ("rng.draw", "rng.draw_calls")):
            n, s, _ = self.counters.get(name, [0, 0.0, 0])
            out[calls_name] = (n, "count")
            out[name + "_s"] = (s, "s")
        out["tensor.backward_calls"] = (calls("tensor.backward"), "count")
        out["tensor.backward_s"] = (secs("tensor.backward"), "s")

        per_variant: dict[str, list] = {v: [0, 0.0] for v in VARIANTS}
        for r in self.spans:
            if r[0] == "routers.route":
                agg = per_variant.setdefault(r[5][0], [0, 0.0])
                agg[0] += 1
                agg[1] += r[4] - r[3]
        for v in VARIANTS:
            out[f"routers.{v}.route_calls"] = (per_variant[v][0], "count")
            out[f"routers.{v}.route_s"] = (per_variant[v][1], "s")
        out["routers.select_s"] = (self.counters.get("routers.select", [0, 0.0])[1], "s")
        cost = self.route_cost_per_row()
        for v in STOCHASTIC:
            ratio = cost[v] / cost["map"] if v in cost and "map" in cost else 0.0
            out[f"routers.{v}.cost_vs_map"] = (ratio, "ratio")
        for v, ratio in analytic_macs_vs_map.items():
            out[f"efficiency.{v}.macs_vs_map"] = (ratio, "ratio")

        out["model.forward_calls"] = (calls("model.forward"), "count")
        out["model.forward_s"] = (secs("model.forward"), "s")
        out["model.expert_mix_s"] = (self_s("model.moe_layer"), "s")
        out["model.predict_calls"] = (calls("model.predict"), "count")
        out["model.predict_s"] = (secs("model.predict"), "s")
        for key, info in (("model.forwards_per_predict", "stochastic"),
                          ("model.map.forwards_per_predict", "map")):
            n, fwd = self._forwards_under("model.predict", info)
            out[key] = (fwd / n if n else 0.0, "count")
        out["model.noise_plan_s"] = (self_s("model.predict"), "s")
        out["optim.step_calls"] = (calls("optim.step"), "count")
        out["optim.step_s"] = (secs("optim.step"), "s")
        out["training.stage1_s"] = (secs("training.stage1"), "s")
        out["training.stage2_s"] = (secs("training.stage2"), "s")
        out["training.val_s"] = (secs("training.val"), "s")
        out["training.epochs"] = (calls("training.val"), "count")
        out["experiment.select_layers_s"] = (secs("experiment.select_layers"), "s")
        n, fwd = self._forwards_under("stability.report")
        out["stability.report_s"] = (secs("stability.report"), "s")
        out["stability.forwards_per_report"] = (fwd / n if n else 0.0, "count")
        out["stability.sweep_s"] = (secs("stability.sweep"), "s")
        out["stability.sweep_forwards"] = (self._forwards_under("stability.sweep")[1],
                                           "count")
        out["metrics.calibration_s"] = (secs("metrics.calibration"), "s")
        out["metrics.detection_s"] = (secs("metrics.detection"), "s")
        out["data.generate_calls"] = (calls("data.generate"), "count")
        out["data.generate_s"] = (secs("data.generate"), "s")
        out["checkpoint.save_s"] = (secs("checkpoint.save"), "s")
        out["checkpoint.load_calls"] = (calls("checkpoint.load"), "count")
        out["checkpoint.load_s"] = (secs("checkpoint.load"), "s")
        out["config.manifest_s"] = (secs("config.manifest"), "s")
        out["cli.calls"] = (calls("cli.main"), "count")
        out["cli.self_s"] = (self_s("cli.main"), "s")
        return out

    def span_lines(self):
        """One JSON-ready record per span, for writing out after the run."""
        for i, (name, call, parent, t0, t1, info, ok) in enumerate(self.spans):
            yield {"id": i, "name": name, "call": call, "parent": parent,
                   "start": t0, "end": t1, "ok": ok,
                   "info": list(info) if isinstance(info, tuple) else info}
