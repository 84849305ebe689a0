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
from .checkpoint import load_checkpoint
from .config import (ConfigError, ExperimentConfig, RunManifest, config_hash,
                     atomic_open, config_to_dict, load_config,
                     write_manifest)
from .data import load_csv
from .efficiency import ArchSpec, VARIANT_ORDER, cost_report, granite_preset
from .experiment import (build_splits, build_suite, evaluate_calibration,
                         ood_detection_rows, run_training)
from .stability import fixed_temperature_layer_sweep, layerwise_stability


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


class ArtifactWriter:
    """Tracks written files so a failed run can clean up after itself."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.files: list[str] = []
        os.makedirs(out_dir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def claim(self, name: str) -> str:
        """Track ``name`` before it is written, so cleanup also removes it
        when a later step fails; returns its path."""
        path = self.path(name)
        self.files.append(path)
        return path

    def write_csv(self, name: str, columns: list[str], rows: list[dict]) -> str:
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt(row[c]) for c in columns))
        return self.write_text(name, "\n".join(lines) + "\n")

    def write_json(self, name: str, payload: dict) -> str:
        return self.write_text(name, json.dumps(payload, indent=2,
                                                sort_keys=True) + "\n")

    def write_text(self, name: str, text: str) -> str:
        path = self.claim(name)
        with atomic_open(path) as fh:
            fh.write(text.encode("utf-8"))
        return path

    def cleanup(self) -> None:
        for path in self.files:
            try:
                os.remove(path)
            except OSError:
                pass


def _svg_line_chart(series: dict, x_label: str, y_label: str,
                    width: int = 640, height: int = 400) -> str:
    """Minimal deterministic SVG polyline chart (one polyline per series)."""
    pad = 50
    xs = sorted({x for pts in series.values() for x, _ in pts})
    if not xs:
        return "<svg xmlns='http://www.w3.org/2000/svg'/>"
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
             f"text-anchor='middle' font-size='12'>{x_label}</text>",
             f"<text x='14' y='{height // 2}' font-size='12' "
             f"transform='rotate(-90 14 {height // 2})' "
             f"text-anchor='middle'>{y_label}</text>"]
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
    return cfg


def _run(args) -> int:
    """Run one subcommand: load and validate its config (subcommands with
    ``--config``), let it compute and write its artifacts, then write the
    manifest listing them.  On any failure, remove every tracked file,
    print ``error: ...`` and return 1."""
    writer = None
    try:
        cfg = _load_experiment(args) if hasattr(args, "config") else None
        writer = ArtifactWriter(cfg.out_dir if cfg else args.out or ".")
        manifest = RunManifest(
            config_hash=config_hash(cfg) if cfg else "-",
            code_version=__version__, seed=cfg.seed if cfg else 0,
            started_at=time.time())
        args.fn(args, cfg, writer)
        for path in writer.files:
            manifest.add_file(path)
        manifest.finish()
        write_manifest(manifest, writer.claim(args.manifest))
        return 0
    except Exception as exc:                                # noqa: BLE001
        if writer is not None:
            writer.cleanup()
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _load_model(args, cfg):
    """``--checkpoint``, or OUT/model_VARIANT.npz."""
    path = args.checkpoint or os.path.join(cfg.out_dir,
                                           f"model_{cfg.variants[0]}.npz")
    return load_checkpoint(path)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def cmd_train(args, cfg, writer) -> None:
    outcome = run_training(cfg, writer)
    logs = [("map", outcome.stage1)] + [(run.variant, run.stage2)
                                        for run in outcome.runs
                                        if run.stage2 is not None]
    writer.write_csv("metrics_train.csv",
                     ["stage", "variant", "epoch", "train_loss",
                      "val_nll", "val_acc", "val_kl"],
                     [{"stage": log.stage, "variant": variant,
                       "epoch": stats.epoch, "train_loss": stats.train_loss,
                       "val_nll": stats.val_nll, "val_acc": stats.val_acc,
                       "val_kl": stats.val_kl}
                      for variant, log in logs for stats in log.epochs])
    if outcome.ranking_cells:
        writer.write_csv(
            "ranking.csv",
            ["layer", "gamma", "mean_jaccard", "selected"],
            [{"layer": c.layer, "gamma": c.gamma,
              "mean_jaccard": c.mean_jaccard,
              "selected": int(c.layer in outcome.selected_layers)}
             for c in outcome.ranking_cells])
    writer.write_json("config_resolved.json", config_to_dict(cfg))


def cmd_eval(args, cfg, writer) -> None:
    model = _load_model(args, cfg)
    if args.data:
        dataset = load_csv(args.data, cfg.model.feature_dim,
                           cfg.model.num_classes)
    else:
        dataset = build_splits(cfg)[args.split]
    report = evaluate_calibration(model, dataset, cfg.seed)
    tag = cfg.variants[0]
    writer.write_json(f"eval_{tag}.json", dataclasses.asdict(report))
    writer.write_csv(f"eval_{tag}.csv", ["accuracy", "nll", "ece", "mce"],
                     [report.csv_row()])
    writer.write_csv(f"eval_bins_{tag}.csv",
                     ["bin_lo", "bin_hi", "confidence", "accuracy", "count"],
                     [{"bin_lo": report.bin_edges[i],
                       "bin_hi": report.bin_edges[i + 1],
                       "confidence": report.bin_confidence[i],
                       "accuracy": report.bin_accuracy[i],
                       "count": report.bin_count[i]}
                      for i in range(len(report.bin_count))])


def cmd_ood(args, cfg, writer) -> None:
    model = _load_model(args, cfg)
    suite = build_suite(cfg)
    id_test = build_splits(cfg)["test"]
    rows = ood_detection_rows(model, id_test,
                              {"near": suite["near"], "far": suite["far"]},
                              cfg.seed)
    tag = cfg.variants[0]
    writer.write_csv(f"ood_{tag}.csv", ["signal", "domain", "auroc", "auprc"],
                     rows)
    writer.write_json(f"ood_{tag}.json", {"rows": rows})


def cmd_stability(args, cfg, writer) -> None:
    model = _load_model(args, cfg)
    dataset = build_splits(cfg)["test"]
    report = layerwise_stability(model, dataset, cfg.perturbation, cfg.seed)
    tag = cfg.variants[0]
    writer.write_csv(f"stability_{tag}.csv",
                     ["layer", "gamma", "mean_jaccard", "q10", "q50", "q90"],
                     [{"layer": c.layer, "gamma": c.gamma,
                       "mean_jaccard": c.mean_jaccard, "q10": c.q10,
                       "q50": c.q50, "q90": c.q90}
                      for c in report.cells])
    if args.svg:
        series = {}
        for c in report.cells:
            series.setdefault(f"layer{c.layer}", []).append(
                (c.gamma, c.mean_jaccard))
        writer.write_text(f"stability_{tag}.svg",
                          _svg_line_chart(series, "gamma", "mean Jaccard"))


def cmd_sweep_temp(args, cfg, writer) -> None:
    model = _load_model(args, cfg)
    dataset = build_splits(cfg)["test"]
    grid = [float(t) for t in args.grid.split(",")]
    if args.layers:
        layers = [int(v) for v in args.layers.split(",")]
    else:
        layers = list(range(cfg.model.num_blocks))
    rows = fixed_temperature_layer_sweep(model, dataset, grid, layers,
                                         seed=cfg.seed)
    writer.write_csv("sweep_temp.csv",
                     ["layer", "temperature", "accuracy", "ece"], rows)


def cmd_efficiency(args, cfg, writer) -> None:
    if args.granite:
        spec = granite_preset()
    else:
        required = [args.layers, args.experts, args.dim, args.width,
                    args.samples]
        if any(v is None for v in required):
            raise ConfigError("either --granite or all of --layers, "
                              "--experts, --dim, --width, --samples")
        spec = ArchSpec(layers=args.layers, num_experts=args.experts,
                        hidden_dim=args.dim, inference_width=args.width,
                        samples=args.samples,
                        base_active_params=args.base_params,
                        base_macs_per_token=args.base_macs)
    variants = (args.variants.split(",") if args.variants
                else list(VARIANT_ORDER))
    report = cost_report(spec, variants, flops=args.flops)
    writer.write_json("efficiency.json", report.to_json_dict())
    writer.write_csv("efficiency.csv",
                     ["variant", "params", "params_pct", "macs_per_token",
                      "macs_pct"],
                     [{"variant": r.variant, "params": r.params,
                       "params_pct": r.params_pct,
                       "macs_per_token": r.macs_per_token,
                       "macs_pct": r.macs_pct} for r in report.rows])


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
    p.set_defaults(fn=cmd_train, manifest="manifest_train.json")

    p = sub.add_parser("eval", help="calibration report on a dataset")
    _add_common(p)
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--data", default=None, help="CSV dataset instead of split")
    p.set_defaults(fn=cmd_eval, manifest="manifest_eval.json")

    p = sub.add_parser("ood", help="detection AUROC/AUPRC per signal")
    _add_common(p)
    p.set_defaults(fn=cmd_ood, manifest="manifest_ood.json")

    p = sub.add_parser("stability", help="layer-wise routing stability")
    _add_common(p)
    p.add_argument("--svg", action="store_true", help="also emit a line chart")
    p.set_defaults(fn=cmd_stability, manifest="manifest_stability.json")

    p = sub.add_parser("sweep-temp", help="fixed-temperature layer sweep")
    _add_common(p)
    p.add_argument("--grid", default="0.1,0.3,0.7,1.0,2.0,5.0",
                   help="comma-separated temperatures")
    p.add_argument("--layers", default=None,
                   help="comma-separated block indices (default: all)")
    p.set_defaults(fn=cmd_sweep_temp, manifest="manifest_sweep.json")

    p = sub.add_parser("efficiency", help="analytic parameter/MAC table")
    p.add_argument("--granite", action="store_true",
                   help="Granite-3B-MoE preset (L=10, N=40, D=1536, H=384, "
                        "S=35, 800M active)")
    p.add_argument("--layers", type=int, default=None)
    p.add_argument("--experts", type=int, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--base-params", type=float, default=800e6)
    p.add_argument("--base-macs", type=float, default=800e6)
    p.add_argument("--variants", default=None,
                   help="comma-separated subset of "
                        + ",".join(VARIANT_ORDER))
    p.add_argument("--flops", action="store_true",
                   help="report 2x FLOPs instead of MACs")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_efficiency, manifest="manifest_efficiency.json")
    return parser


def main(argv=None) -> int:
    return _run(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
