"""End-to-end experiment pipeline shared by the CLI and the test suite.

One experiment seed drives everything: data generation, model init,
training streams, and evaluation streams are all derived from it, so a
rerun with the same config reproduces every number exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

from .checkpoint import save_checkpoint
from .config import ExperimentConfig
from .data import generate_domain, make_ood_suite, split_dataset
from .metrics import CalibrationReport, calibration_report, detection_report
from .model import (MoEClassifier, attach_variational_routers,
                    predict_with_uncertainty)
from .rng import RngStream
from .routers import SIGNAL_NAMES
from .stability import layerwise_stability, sensitivity_ranking
from .training import TrainLog, stage1_train, stage2_train


def build_splits(cfg: ExperimentConfig) -> dict:
    """Generate the in-distribution pool and partition it."""
    d = cfg.data
    spec = d.domain_spec(cfg.model, cfg.seed)
    pool = generate_domain(spec, d.n_train + d.n_val + d.n_test, "id")
    return split_dataset(pool, d.n_train, d.n_val, d.n_test)


def build_suite(cfg: ExperimentConfig) -> dict:
    d = cfg.data
    return make_ood_suite(d.domain_spec(cfg.model, cfg.seed), d.delta_near,
                          d.delta_far, d.n_ood)


def build_model(cfg: ExperimentConfig) -> MoEClassifier:
    return MoEClassifier(cfg.model, RngStream(cfg.seed).derive("model-init"))


def select_layers(cfg: ExperimentConfig, model: MoEClassifier,
                  val_ds) -> tuple[list[int], list]:
    """Layer list for attachment: explicit from config, or the most brittle
    blocks of the deterministic model at the diagnostic noise level."""
    if cfg.layers != "auto":
        return list(cfg.layers), []
    p = cfg.perturbation
    spec = replace(p, gamma_levels=(p.diagnostic_gamma,))
    report = layerwise_stability(
        model, val_ds, spec, RngStream(cfg.seed).derive("ranking").stream_id)
    ranking = sensitivity_ranking(report)
    return sorted(ranking[:cfg.auto_top_k]), report.cells


@dataclass
class VariantRun:
    variant: str
    layers: list[int]
    stage2: TrainLog | None
    checkpoint: str | None


@dataclass
class TrainOutcome:
    splits: dict
    stage1: TrainLog
    selected_layers: list[int]
    ranking_cells: list = field(default_factory=list)
    runs: list[VariantRun] = field(default_factory=list)
    models: dict = field(default_factory=dict)


def run_training(cfg: ExperimentConfig, writer=None) -> TrainOutcome:
    """Stage-1 MAP fit, optional layer selection, then one stage-2 pass per
    requested variant.

    Every variant shares the same stage-1 weights: each non-deterministic
    variant gets a fresh model rebuilt from the stage-1 parameters before its
    routers are attached, so runs never contaminate one another.  With an
    artifact writer (``cli.ArtifactWriter``), a checkpoint is written per
    variant, each tracked before it is written.
    """
    splits = build_splits(cfg)
    base = build_model(cfg)
    stage1 = stage1_train(base, splits["train"], splits["val"], cfg.train,
                          cfg.seed)
    stage1_params = {n: p.data.copy() for n, p in base.param_items()}
    outcome = TrainOutcome(splits=splits, stage1=stage1, selected_layers=[])

    def save(model, variant):
        if writer is None:
            return None
        path = writer.claim(f"model_{variant}.npz")
        save_checkpoint(model, path)
        return path

    if "map" in cfg.variants:
        outcome.models["map"] = base
        outcome.runs.append(VariantRun("map", [], None, save(base, "map")))

    extra_variants = [v for v in cfg.variants if v != "map"]
    if extra_variants:
        layers, cells = select_layers(cfg, base, splits["val"])
        outcome.selected_layers = layers
        outcome.ranking_cells = cells
        for variant in extra_variants:
            model = build_model(cfg)
            for name, p in model.param_items():
                p.data = stage1_params[name].copy()
            attach_variational_routers(model, layers, variant,
                                       RngStream(cfg.seed).derive("phi", variant),
                                       cfg.router)
            stage2 = stage2_train(model, splits["train"], splits["val"],
                                  cfg.train, cfg.seed)
            outcome.models[variant] = model
            outcome.runs.append(VariantRun(variant, layers, stage2,
                                           save(model, variant)))
    return outcome


# --------------------------------------------------------------------------
# evaluation helpers: the number of passes is the model's own (see
# predict_with_uncertainty)
# --------------------------------------------------------------------------


def evaluate_calibration(model: MoEClassifier, dataset,
                         seed: int) -> CalibrationReport:
    rng = RngStream(seed).derive("calibration-eval")
    pred = predict_with_uncertainty(model, dataset.features, rng=rng)
    return calibration_report(pred.probs, dataset.labels)


def signal_scores(model: MoEClassifier, dataset, seed: int) -> dict:
    """Per-example uncertainty signals, averaged over the attached layers."""
    rng = RngStream(seed).derive("signals")
    return predict_with_uncertainty(model, dataset.features, rng=rng).signals


def ood_detection_rows(model: MoEClassifier, id_dataset, shifted: dict,
                       seed: int) -> list[dict]:
    """AUROC/AUPRC per (signal, shifted-domain) pair; higher score = more OoD."""
    id_sig = signal_scores(model, id_dataset, seed)
    rows = []
    for tag in sorted(shifted):
        ood_sig = signal_scores(model, shifted[tag], seed)
        for key in SIGNAL_NAMES:
            if id_sig[key] is None or ood_sig[key] is None:
                continue
            rep = detection_report(id_sig[key], ood_sig[key])
            rows.append({"signal": key, "domain": tag,
                         "auroc": rep.auroc, "auprc": rep.auprc})
    return rows
