"""Two-stage training: deterministic adaptation, then inference-net fitting.

Stage 1 trains the whole classifier with MAP routers on cross-entropy.
Stage 2 freezes everything except the routers' inference nets and optimises
the cross-entropy-plus-KL objective.  Both stages early-stop on their own
objective evaluated on the validation set -- predictive NLL plus the stage's
KL weight times the summed per-layer mean KL -- and return the
best-validation parameters.  With a zero KL weight (stage 1) that objective
is exactly the validation NLL.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .metrics import calibration_report
from .model import MoEClassifier, elbo_loss, predict_with_uncertainty
from .optim import Adam
from .rng import RngStream


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    learning_rate_stage2: float = 1e-4
    epochs_stage1: int = 25
    epochs_stage2: int = 12
    batch_size: int = 64
    kl_weight: float = 0.1
    early_stop_patience: int = 3

    def __post_init__(self):
        if self.epochs_stage1 < 0 or self.epochs_stage2 < 0:
            raise ValueError("epoch counts must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class EpochStats:
    stage: str
    epoch: int
    train_loss: float
    val_nll: float
    val_acc: float
    val_kl: float            # summed per-layer mean KL on the val passes


@dataclass
class TrainLog:
    stage: str
    epochs: list[EpochStats] = field(default_factory=list)
    best_val_objective: float = float("inf")   # what early stopping minimised
    best_epoch: int = -1


def predictive_nll_acc(model: MoEClassifier, dataset,
                       rng: RngStream) -> tuple[float, float, float]:
    """NLL/accuracy of the Monte-Carlo predictive distribution, plus the
    mean over examples of the summed per-layer KL read off the same passes.

    The validation step of both stages: the early-stopping objective is
    built from the NLL and the KL.  It is deterministic given the stream (so
    epoch-to-epoch changes reflect parameters, not sampler luck) and the NLL
    is the quantity the evaluation reports.
    """
    pred = predict_with_uncertainty(model, dataset.features, rng=rng)
    report = calibration_report(pred.probs, dataset.labels)
    return report.nll, report.accuracy, float(pred.kl_per_token.mean())


def _run_stage(model: MoEClassifier, params, train_ds, val_ds,
               cfg: TrainConfig, seed: int, stage: str, lr: float,
               kl_weight: float, epochs: int) -> TrainLog:
    log = TrainLog(stage=stage)
    if epochs == 0 or not params:
        return log
    opt = Adam(params, lr)
    stream = RngStream(seed).derive(stage)
    n = len(train_ds.labels)
    best = None
    patience_left = cfg.early_stop_patience
    for epoch in range(epochs):
        perm = stream.derive("perm", epoch).permutation(n)
        losses = []
        for bi, start in enumerate(range(0, n, cfg.batch_size)):
            idx = perm[start:start + cfg.batch_size]
            fwd_rng = stream.derive("fwd", epoch, bi)
            logits, records = model.forward(train_ds.features[idx], "train",
                                            rng=fwd_rng)
            loss = elbo_loss(logits, train_ds.labels[idx], records, kl_weight)
            opt.zero_grad()
            loss.backward()
            opt.step()
            losses.append(loss.item())
        val_nll, val_acc, val_kl = predictive_nll_acc(model, val_ds,
                                                      stream.derive("val"))
        stats = EpochStats(stage, epoch, float(np.mean(losses)), val_nll,
                           val_acc, val_kl)
        log.epochs.append(stats)
        objective = val_nll + kl_weight * val_kl
        if objective < log.best_val_objective:
            log.best_val_objective = objective
            log.best_epoch = epoch
            best = [p.data.copy() for _, p in params]
            patience_left = cfg.early_stop_patience
        else:
            patience_left -= 1
            if patience_left <= 0:
                break
    if best is not None:
        for (_, p), snap in zip(params, best):
            p.data = snap
    return log


def stage1_train(model: MoEClassifier, train_ds, val_ds, cfg: TrainConfig,
                 seed: int) -> TrainLog:
    """Fit every parameter on cross-entropy; restores the best-val-NLL
    checkpoint (the KL weight is zero, so the objective reduces to it).
    ``seed`` keys the batch order and the routing noise."""
    params = model.param_items()
    return _run_stage(model, params, train_ds, val_ds, cfg, seed, "stage1",
                      cfg.learning_rate, 0.0, cfg.epochs_stage1)


def stage2_train(model: MoEClassifier, train_ds, val_ds, cfg: TrainConfig,
                 seed: int) -> TrainLog:
    """Fit only the inference nets; every other parameter is frozen.

    Freezing flips ``requires_grad`` off so the tape never reaches the
    frozen weights; the optimiser only ever sees the inference-net set.
    """
    phi = model.phi_param_items()
    phi_names = {n for n, _ in phi}
    for name, p in model.param_items():
        if name not in phi_names:
            p.requires_grad = False
    return _run_stage(model, phi, train_ds, val_ds, cfg, seed, "stage2",
                      cfg.learning_rate_stage2, cfg.kl_weight,
                      cfg.epochs_stage2)

