"""Calibration, detection, and routing-stability metrics.

Conventions, all documented so results are comparable across runs:

* calibration bins are equal-width over [0, 1] (15 by default), with the
  top bin closed so confidence 1.0 lands in it; empty bins are skipped;
* confidence is the maximum class probability;
* detection treats out-of-distribution as the positive class; AUROC is the
  Mann-Whitney statistic with ties counted one half, and AUPRC is the
  step-interpolated average precision (no trapezoids).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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

    def csv_row(self) -> dict:
        return {"accuracy": self.accuracy, "nll": self.nll,
                "ece": self.ece, "mce": self.mce}


@dataclass
class DetectionReport:
    auroc: float
    auprc: float


def _bin_index(confidences: np.ndarray, bins: int) -> np.ndarray:
    idx = np.floor(confidences * bins).astype(int)
    return np.clip(idx, 0, bins - 1)


def _bin_gaps(confidences, correct, bins):
    conf = np.asarray(confidences, dtype=np.float64)
    corr = np.asarray(correct, dtype=np.float64)
    if conf.shape != corr.shape:
        raise ValueError("confidences and correct flags must align")
    if conf.size and (conf.min() < 0.0 or conf.max() > 1.0):
        raise ValueError("confidences must lie in [0, 1]")
    idx = _bin_index(conf, bins)
    count = np.bincount(idx, minlength=bins).astype(np.float64)
    conf_sum = np.bincount(idx, weights=conf, minlength=bins)
    acc_sum = np.bincount(idx, weights=corr, minlength=bins)
    nonempty = count > 0
    gaps = np.zeros(bins)
    gaps[nonempty] = np.abs(acc_sum[nonempty] - conf_sum[nonempty]) / count[nonempty]
    return gaps, count, conf_sum, acc_sum


def ece(confidences, correct, bins: int = 15) -> float:
    """Expected calibration error: count-weighted |accuracy - confidence| per bin."""
    gaps, count, _, _ = _bin_gaps(confidences, correct, bins)
    n = count.sum()
    return float((count / n * gaps).sum()) if n else 0.0


def mce(confidences, correct, bins: int = 15) -> float:
    """Maximum calibration error: worst |accuracy - confidence| over nonempty bins."""
    gaps, count, _, _ = _bin_gaps(confidences, correct, bins)
    return float(gaps[count > 0].max()) if count.sum() else 0.0


def calibration_report(probs, labels, bins: int = 15) -> CalibrationReport:
    """Accuracy, NLL, ECE/MCE, and the per-bin reliability table."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    conf = probs.max(axis=1)
    pred = probs.argmax(axis=1)
    correct = (pred == labels).astype(np.float64)
    picked = probs[np.arange(len(labels)), labels]
    nll = float(-np.log(np.clip(picked, 1e-12, None)).mean())
    gaps, count, conf_sum, acc_sum = _bin_gaps(conf, correct, bins)
    nonempty = count > 0
    bin_conf = np.zeros(bins)
    bin_acc = np.zeros(bins)
    bin_conf[nonempty] = conf_sum[nonempty] / count[nonempty]
    bin_acc[nonempty] = acc_sum[nonempty] / count[nonempty]
    return CalibrationReport(
        accuracy=float(correct.mean()), nll=nll,
        ece=float((count / count.sum() * gaps).sum()),
        mce=float(gaps[nonempty].max()) if nonempty.any() else 0.0,
        bin_edges=[i / bins for i in range(bins + 1)],
        bin_confidence=bin_conf.tolist(),
        bin_accuracy=bin_acc.tolist(),
        bin_count=count.astype(int).tolist())


def auroc(scores_id, scores_ood) -> float:
    """P(random OoD score > random ID score), ties counted one half."""
    a = np.asarray(scores_id, dtype=np.float64)
    b = np.asarray(scores_ood, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("both score sets must be non-empty")
    values = np.concatenate([a, b])
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.size, dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j < values.size and sorted_vals[j] == sorted_vals[i]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + j - 1) + 1.0
        i = j
    u = ranks[a.size:].sum() - b.size * (b.size + 1) / 2.0
    return float(u / (a.size * b.size))


def auprc(scores_id, scores_ood) -> float:
    """Step-interpolated average precision with OoD as the positive class."""
    a = np.asarray(scores_id, dtype=np.float64)
    b = np.asarray(scores_ood, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("both score sets must be non-empty")
    scores = np.concatenate([a, b])
    positive = np.concatenate([np.zeros(a.size), np.ones(b.size)])
    order = np.argsort(-scores, kind="mergesort")
    scores, positive = scores[order], positive[order]
    ap = 0.0
    tp = fp = 0.0
    prev_recall = 0.0
    total_pos = float(b.size)
    i = 0
    while i < scores.size:
        j = i
        while j < scores.size and scores[j] == scores[i]:
            j += 1
        tp += positive[i:j].sum()
        fp += (j - i) - positive[i:j].sum()
        recall = tp / total_pos
        precision = tp / (tp + fp)
        ap += (recall - prev_recall) * precision
        prev_recall = recall
        i = j
    return float(ap)


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
