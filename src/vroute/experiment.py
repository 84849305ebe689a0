"""End-to-end experiment pipeline shared by the CLI and the test suite.

One experiment seed drives everything: data generation, model init,
training streams, and evaluation streams are all derived from it, so a
rerun with the same config reproduces every number exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

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
    pool = generate_domain(spec, d.n_train + d.n_val + d.n_test)
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
    cells = layerwise_stability(
        model, val_ds, spec, RngStream(cfg.seed).derive("ranking").stream_id)
    ranking = sensitivity_ranking(cells, p.diagnostic_gamma)
    return sorted(ranking[:cfg.auto_top_k]), cells


@dataclass
class TrainOutcome:
    stage1: TrainLog
    selected_layers: list[int]
    ranking_cells: list = field(default_factory=list)
    stage2: dict[str, TrainLog] = field(default_factory=dict)   # by variant


def run_training(cfg: ExperimentConfig, save) -> TrainOutcome:
    """Stage-1 MAP fit, optional layer selection, then one stage-2 pass per
    requested variant.

    Every variant shares the same stage-1 weights: each non-deterministic
    variant gets a fresh model rebuilt from the stage-1 parameters before its
    routers are attached, so runs never contaminate one another.  Each
    variant's model goes to ``save(model, variant)`` once it is trained, so
    only one stage-2 model is held at a time.
    """
    splits = build_splits(cfg)
    base = build_model(cfg)
    stage1 = stage1_train(base, splits["train"], splits["val"], cfg.train,
                          cfg.seed)
    stage1_params = {n: p.data.copy() for n, p in base.param_items()}
    outcome = TrainOutcome(stage1=stage1, selected_layers=[])

    if "map" in cfg.variants:
        save(base, "map")

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
            outcome.stage2[variant] = stage2_train(
                model, splits["train"], splits["val"], cfg.train, cfg.seed)
            save(model, variant)
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
