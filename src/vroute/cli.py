"""Command-line experiment runner.

Subcommands: train, eval, ood, stability, sweep-temp, efficiency.  Each one
runs through :func:`_run`, which loads and validates the config, hands the
subcommand an :class:`ArtifactWriter`, and writes a manifest of every
artifact into the output directory.  Each file is written atomically (tmp
file plus ``os.replace``), and the writer tracks each file before it is
written, so when anything fails the runner removes all of them, prints
``error: ...`` and exits 1 (exit code 0 means every requested artifact was
written).  All randomness derives from the seed.  CSV outputs use UTF-8, LF
line endings, and fixed column orders; floats are written in shortest
round-trip form.

The config's ``model`` and ``router`` sections are read at train time and
stored in each checkpoint; the other commands use the checkpoint's values,
so a stochastic model's number of predictive passes is its routers'
``eval_samples``.  The synthetic data and an ``eval --data`` CSV take their
feature and class counts from the config's ``model`` section.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from . import __version__
from .checkpoint import load_checkpoint, save_checkpoint
from .config import (ConfigError, ExperimentConfig, RunManifest, config_hash,
                     atomic_open, load_config, write_manifest)
from .data import load_csv
from .efficiency import ArchSpec, cost_report, granite_preset
from .experiment import (build_splits, build_suite, evaluate_calibration,
                         ood_detection_rows, run_training)
from .routers import TEMPERATURE_RULE, RouterSettings
from .stability import fixed_temperature_layer_sweep, layerwise_stability


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


# The name patterns each subcommand may write, ``{variant}`` for a variant,
# its manifest last; the command decides when a conditional file is written.
CHECKPOINT = "model_{variant}.npz"
ARTIFACTS = {
    "train": (CHECKPOINT, "metrics_train.csv", "ranking.csv",
              "config_resolved.json", "manifest_train.json"),
    "eval": ("eval_{variant}.json", "eval_{variant}.csv",
             "eval_bins_{variant}.csv", "manifest_eval.json"),
    "ood": ("ood_{variant}.csv", "ood_{variant}.json", "manifest_ood.json"),
    "stability": ("stability_{variant}.csv", "stability_{variant}.svg",
                  "manifest_stability.json"),
    "sweep-temp": ("sweep_temp.csv", "manifest_sweep.json"),
    "efficiency": ("efficiency.json", "efficiency.csv",
                   "manifest_efficiency.json"),
}


class ArtifactWriter:
    """Writes the files of ``command``'s :data:`ARTIFACTS` row and tracks
    them, so a failed run can clean up after itself."""

    def __init__(self, out_dir: str, command: str, variant: str | None):
        self.out_dir = out_dir
        self.command = command
        self.variant = variant
        self.files: list[str] = []
        os.makedirs(out_dir, exist_ok=True)

    def claim(self, pattern: str, variant: str | None = None) -> str:
        """Track the file ``pattern`` names, for ``variant`` or the run's,
        before it is written, so a failed run removes it; returns its path."""
        if pattern not in ARTIFACTS[self.command]:
            raise ValueError(f"{self.command} writes no {pattern}")
        variant = variant or self.variant
        if "{variant}" in pattern and variant is None:
            raise ValueError(f"{pattern} needs a variant")
        path = os.path.join(self.out_dir, pattern.format(variant=variant))
        self.files.append(path)
        return path

    def write_csv(self, pattern: str, columns: list[str],
                  rows: list[dict]) -> None:
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt(row[c]) for c in columns))
        self.write_text(pattern, "\n".join(lines) + "\n")

    def write_json(self, pattern: str, payload: dict) -> None:
        self.write_text(pattern, json.dumps(payload, indent=2, sort_keys=True)
                        + "\n")

    def write_text(self, pattern: str, text: str) -> None:
        with atomic_open(self.claim(pattern)) as fh:
            fh.write(text.encode("utf-8"))

    def cleanup(self) -> None:
        for path in self.files:
            try:
                os.remove(path)
            except OSError:
                pass


def _svg_line_chart(series: dict) -> str:
    """Minimal deterministic 640 x 400 SVG polyline chart of mean Jaccard
    against gamma (one polyline per series)."""
    width, height, pad = 640, 400, 50
    xs = [x for pts in series.values() for x, _ in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, 1.0
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

    def sx(x):
        span = (x_hi - x_lo) or 1.0
        return pad + (x - x_lo) / span * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y_lo) / (y_hi - y_lo) * (height - 2 * pad)

    parts = [f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' "
             f"height='{height}'>",
             f"<rect width='{width}' height='{height}' fill='white'/>",
             f"<line x1='{pad}' y1='{height - pad}' x2='{width - pad}' "
             f"y2='{height - pad}' stroke='black'/>",
             f"<line x1='{pad}' y1='{pad}' x2='{pad}' y2='{height - pad}' "
             f"stroke='black'/>",
             f"<text x='{width // 2}' y='{height - 10}' "
             "text-anchor='middle' font-size='12'>gamma</text>",
             f"<text x='14' y='{height // 2}' font-size='12' "
             f"transform='rotate(-90 14 {height // 2})' "
             "text-anchor='middle'>mean Jaccard</text>"]
    for i, (name, pts) in enumerate(sorted(series.items())):
        color = colors[i % len(colors)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in sorted(pts))
        parts.append(f"<polyline fill='none' stroke='{color}' "
                     f"stroke-width='1.5' points='{coords}'/>")
        parts.append(f"<text x='{width - pad + 4}' y='{pad + 14 * i + 10}' "
                     f"font-size='10' fill='{color}'>{name}</text>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _load_experiment(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, out_dir=args.out)
    if args.variant:
        cfg = dataclasses.replace(cfg, variants=[args.variant])
    if hasattr(args, "checkpoint") and len(cfg.variants) != 1:
        raise ConfigError(f"{args.command} runs one variant: give --variant "
                          f"(the config names {', '.join(cfg.variants)})")
    return cfg


def _run(args) -> int:
    """Run one subcommand: load and validate its config (subcommands with
    ``--config``), let it compute and write its artifacts, then write the
    manifest listing them.  On any exception, remove every tracked file;
    then print ``error: ...`` and return 1 for an :class:`Exception`, and
    re-raise anything else (a Ctrl-C still ends the process)."""
    writer = None
    try:
        cfg = _load_experiment(args) if hasattr(args, "config") else None
        variant = cfg.variants[0] if hasattr(args, "checkpoint") else None
        writer = ArtifactWriter(cfg.out_dir if cfg else args.out or ".",
                                args.command, variant)
        manifest = RunManifest(
            config_hash=config_hash(cfg) if cfg else "-",
            code_version=__version__, seed=cfg.seed if cfg else 0,
            started_at=time.time())
        args.fn(args, cfg, writer)
        for path in writer.files:
            manifest.add_file(path)
        manifest.finish()
        write_manifest(manifest, writer.claim(ARTIFACTS[args.command][-1]))
        return 0
    except BaseException as exc:
        if writer is not None:
            writer.cleanup()
        if not isinstance(exc, Exception):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _load_model(args, cfg, variant):
    """``--checkpoint``, or OUT/model_VARIANT.npz.  The data is built from
    the config's ``model`` section, so the checkpoint must agree with it on
    the feature and class counts.  The artifacts are tagged with the
    variant, so the checkpoint's routers must be of that variant: a MAP
    checkpoint has only MAP routers, any other has MAP routers and routers
    of its variant."""
    path = args.checkpoint or os.path.join(cfg.out_dir,
                                           CHECKPOINT.format(variant=variant))
    model = load_checkpoint(path)
    for key in ("feature_dim", "num_classes"):
        have, want = getattr(model.config, key), getattr(cfg.model, key)
        if have != want:
            raise ConfigError(f"checkpoint {path} has {key} {have}, but the "
                              f"config's model.{key} is {want}")
    routed = sorted({model.blocks[i].moe.router.variant
                     for i in model.stochastic_blocks()}) or ["map"]
    if routed != [variant]:
        raise ConfigError(f"checkpoint {path} routes with "
                          f"{','.join(routed)}, but the variant is {variant}")
    return model


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_train(args, cfg, writer) -> None:
    outcome = run_training(cfg, lambda model, variant: save_checkpoint(
        model, writer.claim(CHECKPOINT, variant)))
    logs = [("map", outcome.stage1)] + list(outcome.stage2.items())
    writer.write_csv("metrics_train.csv",
                     ["stage", "variant", "epoch", "train_loss",
                      "val_nll", "val_acc", "val_kl"],
                     [{"variant": variant, **dataclasses.asdict(stats)}
                      for variant, log in logs for stats in log.epochs])
    if outcome.ranking_cells:
        writer.write_csv(
            "ranking.csv",
            ["layer", "gamma", "mean_jaccard", "selected"],
            [{**dataclasses.asdict(c),
              "selected": int(c.layer in outcome.selected_layers)}
             for c in outcome.ranking_cells])
    writer.write_json("config_resolved.json", dataclasses.asdict(cfg))


def cmd_eval(args, cfg, writer) -> None:
    if args.data and args.split:
        raise ConfigError("--data takes no --split")
    model = _load_model(args, cfg, writer.variant)
    if args.data:
        dataset = load_csv(args.data, cfg.model.feature_dim,
                           cfg.model.num_classes)
    else:
        dataset = build_splits(cfg)[args.split or "test"]
    report = evaluate_calibration(model, dataset, cfg.seed)
    writer.write_json("eval_{variant}.json", dataclasses.asdict(report))
    writer.write_csv("eval_{variant}.csv", ["accuracy", "nll", "ece", "mce"],
                     [dataclasses.asdict(report)])
    writer.write_csv("eval_bins_{variant}.csv",
                     ["bin_lo", "bin_hi", "confidence", "accuracy", "count"],
                     [{"bin_lo": report.bin_edges[i],
                       "bin_hi": report.bin_edges[i + 1],
                       "confidence": report.bin_confidence[i],
                       "accuracy": report.bin_accuracy[i],
                       "count": report.bin_count[i]}
                      for i in range(len(report.bin_count))])


def cmd_ood(args, cfg, writer) -> None:
    model = _load_model(args, cfg, writer.variant)
    suite = build_suite(cfg)
    id_test = build_splits(cfg)["test"]
    rows = ood_detection_rows(model, id_test, suite, cfg.seed)
    writer.write_csv("ood_{variant}.csv",
                     ["signal", "domain", "auroc", "auprc"], rows)
    writer.write_json("ood_{variant}.json", {"rows": rows})


def cmd_stability(args, cfg, writer) -> None:
    model = _load_model(args, cfg, writer.variant)
    dataset = build_splits(cfg)["test"]
    cells = layerwise_stability(model, dataset, cfg.perturbation, cfg.seed)
    writer.write_csv("stability_{variant}.csv",
                     ["layer", "gamma", "mean_jaccard", "q10", "q50", "q90"],
                     [dataclasses.asdict(c) for c in cells])
    if args.svg:
        series = {}
        for c in cells:
            series.setdefault(f"layer{c.layer}", []).append(
                (c.gamma, c.mean_jaccard))
        writer.write_text("stability_{variant}.svg", _svg_line_chart(series))


def _comma_list(flag: str, text: str, parse, rule: str) -> list:
    """``flag``'s value ``text`` as a list: each comma-separated item through
    ``parse``, which raises ValueError on an item that breaks ``rule``, and
    no item given twice."""
    try:
        items = [parse(t) for t in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} {text!r}: {rule}") from None
    twice = sorted({v for v in items if items.count(v) > 1})
    if twice:
        raise ConfigError(f"{flag} {text!r}: {','.join(map(str, twice))} "
                          "given more than once")
    return items


def cmd_sweep_temp(args, cfg, writer) -> None:
    # Each temperature keeps the rule of the config's global_temperature.
    grid = _comma_list(
        "--grid", args.grid,
        lambda t: RouterSettings(global_temperature=float(t)).global_temperature,
        f"temperatures must be comma-separated numbers, each {TEMPERATURE_RULE}")
    # Whether each block is in the checkpoint is checked once it is loaded.
    layers = (None if args.layers is None else _comma_list(
        "--layers", args.layers, int, "blocks must be comma-separated "
        "integers"))
    model = _load_model(args, cfg, writer.variant)
    dataset = build_splits(cfg)["test"]
    if layers is None:
        layers = list(range(len(model.blocks)))
    for layer in layers:
        if not 0 <= layer < len(model.blocks):
            raise ConfigError(f"--layers: block {layer} is not in the "
                              f"checkpoint's {len(model.blocks)} blocks")
    rows = fixed_temperature_layer_sweep(model, dataset, grid, layers,
                                         seed=cfg.seed)
    writer.write_csv("sweep_temp.csv",
                     ["layer", "temperature", "accuracy", "ece"], rows)


def cmd_efficiency(args, cfg, writer) -> None:
    sizes = [args.layers, args.experts, args.dim, args.width, args.samples]
    bases = {"base_active_params": args.base_params,
             "base_macs_per_token": args.base_macs}
    if args.granite:
        if any(v is not None for v in sizes + list(bases.values())):
            raise ConfigError("--granite takes no --layers, --experts, --dim, "
                              "--width, --samples, --base-params or "
                              "--base-macs")
        spec = granite_preset()
    elif None in sizes:
        raise ConfigError("either --granite or all of --layers, "
                          "--experts, --dim, --width, --samples")
    else:
        spec = ArchSpec(layers=args.layers, num_experts=args.experts,
                        hidden_dim=args.dim, inference_width=args.width,
                        samples=args.samples,
                        **{k: v for k, v in bases.items() if v is not None})
    report = cost_report(spec)
    writer.write_json("efficiency.json", dataclasses.asdict(report))
    writer.write_csv("efficiency.csv",
                     ["variant", "params", "params_pct", "macs_per_token",
                      "macs_pct"],
                     [dataclasses.asdict(r) for r in report.rows])


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------


def _add_common(p, checkpoint: bool = True):
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--seed", type=int, default=None, help="override seed")
    p.add_argument("--out", default=None, help="override output directory")
    p.add_argument("--variant", default=None, help="router variant")
    if checkpoint:
        p.add_argument("--checkpoint", default=None,
                       help="model checkpoint (.npz); defaults to "
                            "OUT/model_VARIANT.npz")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vroute",
        description="Mixture-of-experts routing laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="two-stage training run")
    _add_common(p, checkpoint=False)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="calibration report on a dataset")
    _add_common(p)
    p.add_argument("--split", default=None, choices=["train", "val", "test"],
                   help="synthetic split (default: test)")
    p.add_argument("--data", default=None, help="CSV dataset instead of split")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ood", help="detection AUROC/AUPRC per signal")
    _add_common(p)
    p.set_defaults(fn=cmd_ood)

    p = sub.add_parser("stability", help="layer-wise routing stability")
    _add_common(p)
    p.add_argument("--svg", action="store_true", help="also emit a line chart")
    p.set_defaults(fn=cmd_stability)

    p = sub.add_parser("sweep-temp", help="fixed-temperature layer sweep")
    _add_common(p)
    p.add_argument("--grid", default="0.1,0.3,0.7,1.0,2.0,5.0",
                   help="comma-separated temperatures")
    p.add_argument("--layers", default=None,
                   help="comma-separated block indices (default: all)")
    p.set_defaults(fn=cmd_sweep_temp)

    p = sub.add_parser("efficiency", help="analytic parameter/MAC table")
    p.add_argument("--granite", action="store_true",
                   help="Granite-3B-MoE preset (L=10, N=40, D=1536, H=384, "
                        "S=35, 800M active)")
    p.add_argument("--layers", type=int, default=None)
    p.add_argument("--experts", type=int, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--base-params", type=float)
    p.add_argument("--base-macs", type=float)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_efficiency)
    return parser


def main(argv=None) -> int:
    return _run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
