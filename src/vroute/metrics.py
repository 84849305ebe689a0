"""Calibration, detection, and routing-stability metrics.

Conventions, all documented so results are comparable across runs:

* calibration uses ``CALIBRATION_BINS`` equal-width bins over [0, 1], with
  the top bin closed so confidence 1.0 lands in it; empty bins are skipped;
* confidence is the maximum class probability;
* detection treats out-of-distribution as the positive class; AUROC is the
  Mann-Whitney statistic with ties counted one half, and AUPRC is the
  step-interpolated average precision (no trapezoids).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CALIBRATION_BINS = 15


@dataclass
class CalibrationReport:
    accuracy: float
    nll: float
    ece: float
    mce: float
    bin_edges: list[float]
    bin_confidence: list[float]
    bin_accuracy: list[float]
    bin_count: list[int]


@dataclass
class DetectionReport:
    auroc: float
    auprc: float


def calibration_report(probs, labels) -> CalibrationReport:
    """Accuracy, NLL, ECE/MCE, and the per-bin reliability table.

    ECE is the count-weighted |accuracy - confidence| over the bins, MCE the
    worst one over the nonempty bins.  Zero rows are rejected: every mean
    over them would be NaN.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if probs.ndim != 2 or len(probs) != len(labels):
        raise ValueError("probs must be [n, C] rows aligned with labels")
    if not len(labels):
        raise ValueError("no rows to score")
    if not np.isfinite(probs).all():
        raise ValueError("probabilities must be finite")
    if labels.min() < 0 or labels.max() >= probs.shape[1]:
        raise ValueError(f"labels must lie in [0, {probs.shape[1]})")
    conf = probs.max(axis=1)
    if conf.min() < 0.0 or conf.max() > 1.0:
        raise ValueError("confidences must lie in [0, 1]")
    pred = probs.argmax(axis=1)
    correct = (pred == labels).astype(np.float64)
    picked = probs[np.arange(len(labels)), labels]
    nll = float(-np.log(np.clip(picked, 1e-12, None)).mean())
    bins = CALIBRATION_BINS
    idx = np.clip(np.floor(conf * bins).astype(int), 0, bins - 1)
    count = np.bincount(idx, minlength=bins).astype(np.float64)
    conf_sum = np.bincount(idx, weights=conf, minlength=bins)
    acc_sum = np.bincount(idx, weights=correct, minlength=bins)
    nonempty = count > 0
    gaps = np.zeros(bins)
    gaps[nonempty] = np.abs(acc_sum[nonempty] - conf_sum[nonempty]) / count[nonempty]
    bin_conf = np.zeros(bins)
    bin_acc = np.zeros(bins)
    bin_conf[nonempty] = conf_sum[nonempty] / count[nonempty]
    bin_acc[nonempty] = acc_sum[nonempty] / count[nonempty]
    return CalibrationReport(
        accuracy=float(correct.mean()), nll=nll,
        ece=float((count / count.sum() * gaps).sum()),
        mce=float(gaps[nonempty].max()),
        bin_edges=[i / bins for i in range(bins + 1)],
        bin_confidence=bin_conf.tolist(),
        bin_accuracy=bin_acc.tolist(),
        bin_count=count.astype(int).tolist())


def _tie_groups(sorted_vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and end (exclusive) index of each run of equal sorted values."""
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    return starts, np.r_[starts[1:], sorted_vals.size]


def auroc(scores_id, scores_ood) -> float:
    """P(random OoD score > random ID score), ties counted one half."""
    a = np.asarray(scores_id, dtype=np.float64)
    b = np.asarray(scores_ood, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("both score sets must be non-empty")
    values = np.concatenate([a, b])
    order = np.argsort(values, kind="mergesort")
    starts, ends = _tie_groups(values[order])
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends - 1) + 1.0, ends - starts)
    u = ranks[a.size:].sum() - b.size * (b.size + 1) / 2.0
    return float(u / (a.size * b.size))


def auprc(scores_id, scores_ood) -> float:
    """Step-interpolated average precision with OoD as the positive class.

    One step per group of tied scores, summed from the highest score down.
    """
    a = np.asarray(scores_id, dtype=np.float64)
    b = np.asarray(scores_ood, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("both score sets must be non-empty")
    scores = np.concatenate([a, b])
    positive = np.concatenate([np.zeros(a.size), np.ones(b.size)])
    order = np.argsort(-scores, kind="mergesort")
    starts, ends = _tie_groups(scores[order])
    tp = np.cumsum(np.add.reduceat(positive[order], starts))
    recall = tp / float(b.size)
    precision = tp / ends
    terms = (recall - np.r_[0.0, recall[:-1]]) * precision
    # cumsum adds left to right, as the step sum is defined; sum() is pairwise
    return float(np.cumsum(terms)[-1])


def detection_report(scores_id, scores_ood) -> DetectionReport:
    return DetectionReport(auroc=auroc(scores_id, scores_ood),
                           auprc=auprc(scores_id, scores_ood))


def jaccard_rows(mask_a: np.ndarray, mask_b: np.ndarray) -> np.ndarray:
    """Row-wise Jaccard similarity of two batches of 0/1 selection masks."""
    a = np.asarray(mask_a, dtype=bool)
    b = np.asarray(mask_b, dtype=bool)
    inter = (a & b).sum(axis=-1)
    union = (a | b).sum(axis=-1)
    out = np.ones(a.shape[:-1])
    nz = union > 0
    out[nz] = inter[nz] / union[nz]
    return out
