"""Synthetic domain-shift data and CSV ingestion.

Each domain draws from a class-conditional Gaussian mixture: every class
owns a few modes so experts have structure to specialise on.  Shifted
domains move the mode means by a magnitude ``delta`` along one fixed random
direction, which gives an ordered family of increasingly out-of-distribution
datasets.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .rng import RngStream


class DataError(ValueError):
    """Invalid data specification or malformed input file."""


@dataclass
class SyntheticDomainSpec:
    num_classes: int = 4
    modes_per_class: int = 2
    feature_dim: int = 16
    mode_means: np.ndarray | None = None   # (num_classes * modes_per_class, feature_dim)
    mean_scale: float = 0.35               # spread of auto-generated mode means
    noise_scale: float = 0.5
    shift_magnitude: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if min(self.num_classes, self.modes_per_class, self.feature_dim) < 1:
            raise DataError("num_classes, modes_per_class, feature_dim must be >= 1")
        if self.noise_scale <= 0:
            raise DataError("noise_scale must be > 0")
        if self.shift_magnitude < 0:
            raise DataError("shift_magnitude must be >= 0")
        if self.mode_means is not None:
            self.mode_means = np.asarray(self.mode_means, dtype=np.float64)
            want = (self.num_classes * self.modes_per_class, self.feature_dim)
            if self.mode_means.shape != want:
                raise DataError(f"mode_means must have shape {want}")


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    domain_tag: str
    shift: float
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or len(self.features) != len(self.labels):
            raise DataError("features must be (n, F) aligned with labels")
        if not np.all(np.isfinite(self.features)):
            raise DataError("features contain non-finite values")
        if self.labels.size and (self.labels.min() < 0
                                 or self.labels.max() >= self.num_classes):
            raise DataError("label out of range")

    def __len__(self) -> int:
        return len(self.labels)


def _float_bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


def base_mode_means(spec: SyntheticDomainSpec) -> np.ndarray:
    if spec.mode_means is not None:
        return spec.mode_means
    rng = RngStream(spec.seed).derive("means")
    rows = spec.num_classes * spec.modes_per_class
    return spec.mean_scale * rng.normal((rows, spec.feature_dim))


def _shift_direction(spec: SyntheticDomainSpec) -> np.ndarray:
    v = RngStream(spec.seed).derive("shift-dir").normal((spec.feature_dim,))
    return v / np.linalg.norm(v)


def domain_mode_means(spec: SyntheticDomainSpec) -> np.ndarray:
    """Mode means after the domain transform: a shift by delta."""
    means = base_mode_means(spec)
    if spec.shift_magnitude != 0.0:
        means = means + spec.shift_magnitude * _shift_direction(spec)
    return means


def generate_domain(spec: SyntheticDomainSpec, n: int,
                    domain_tag: str = "id") -> Dataset:
    """Draw n samples from the domain's Gaussian mixture; pure in (spec, n)."""
    if n < 1:
        raise DataError("n must be >= 1")
    means = domain_mode_means(spec)
    # 0 fills the former rotation-angle key, so every seed keeps its samples.
    stream = RngStream(spec.seed).derive(
        "samples", _float_bits(spec.shift_magnitude), 0)
    labels = stream.derive("labels").integers(0, spec.num_classes, (n,))
    modes = stream.derive("modes").integers(0, spec.modes_per_class, (n,))
    eps = stream.derive("noise").normal((n, spec.feature_dim))
    feats = means[labels * spec.modes_per_class + modes] + spec.noise_scale * eps
    return Dataset(feats, labels, domain_tag, spec.shift_magnitude,
                   spec.num_classes)


def split_dataset(ds: Dataset, n_train: int, n_val: int, n_test: int) -> dict:
    """Partition a dataset into disjoint, exhaustive train/val/test slices."""
    if n_train + n_val + n_test != len(ds):
        raise DataError("split sizes must sum to the dataset size")
    out = {}
    offsets = {"train": (0, n_train), "val": (n_train, n_train + n_val),
               "test": (n_train + n_val, len(ds))}
    for name, (lo, hi) in offsets.items():
        out[name] = Dataset(ds.features[lo:hi], ds.labels[lo:hi],
                            ds.domain_tag, ds.shift, ds.num_classes)
    return out


def make_ood_suite(base_spec: SyntheticDomainSpec, delta_near: float,
                   delta_far: float, n_each: int) -> dict:
    """In-distribution, near-shift, and far-shift datasets of n_each samples.

    All three share class structure (same seed, hence same base means); the
    shifted domains move the means by delta_near < delta_far.
    """
    if not (0.0 <= delta_near < delta_far):
        raise DataError("ordering violation: require 0 <= delta_near < delta_far")
    return {
        "id": generate_domain(replace(base_spec, shift_magnitude=0.0), n_each, "id"),
        "near": generate_domain(replace(base_spec, shift_magnitude=delta_near),
                                n_each, "near"),
        "far": generate_domain(replace(base_spec, shift_magnitude=delta_far),
                               n_each, "far"),
    }


# --------------------------------------------------------------------------
# CSV interchange: header f0,...,f{F-1},label; LF; shortest round-trip floats
# --------------------------------------------------------------------------


def csv_header(feature_dim: int) -> str:
    return ",".join([f"f{i}" for i in range(feature_dim)] + ["label"])


def load_csv(path, feature_dim: int, num_classes: int) -> Dataset:
    """Parse a feature/label CSV; malformed rows are reported by line number."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DataError("no data rows")
    if lines[0] != csv_header(feature_dim):
        raise DataError(f"bad header: expected {csv_header(feature_dim)!r}")
    feats, labels, bad = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != feature_dim + 1:
            bad.append(f"line {lineno}: expected {feature_dim + 1} columns")
            continue
        try:
            row = [float(c) for c in cells[:-1]]
            label = int(cells[-1])
        except ValueError:
            bad.append(f"line {lineno}: non-numeric cell")
            continue
        if not all(math.isfinite(v) for v in row):
            bad.append(f"line {lineno}: non-finite feature")
            continue
        if not (0 <= label < num_classes):
            bad.append(f"line {lineno}: label out of range")
            continue
        feats.append(row)
        labels.append(label)
    if bad:
        raise DataError("malformed rows: " + "; ".join(bad))
    if not feats:
        raise DataError("no data rows")
    return Dataset(np.array(feats), np.array(labels), "id", 0.0, num_classes)
