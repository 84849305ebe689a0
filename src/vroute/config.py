"""Experiment configuration and run manifests.

Configs are plain JSON objects parsed strictly: unknown keys anywhere in
the tree are rejected so typos never silently fall back to defaults, and a
value of the wrong type is rejected at load rather than mid-run.  The
manifest written at the end of a run records the config hash, code version,
seed, timestamps, and a digest of every emitted file.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field

from .data import SyntheticDomainSpec, check_shift_order
from .model import ModelConfig
from .routers import VARIANTS, RouterSettings
from .stability import PerturbationSpec
from .training import TrainConfig


class ConfigError(ValueError):
    """Malformed experiment configuration."""


@dataclass
class DataConfig:
    """The synthetic domains; their feature and class counts are the
    model's, and their seed is the experiment's."""

    modes_per_class: int = 2
    mean_scale: float = 0.35
    noise_scale: float = 0.5
    delta_near: float = 1.0
    delta_far: float = 3.0
    n_train: int = 2000
    n_val: int = 200
    n_test: int = 500
    n_ood: int = 500

    def __post_init__(self):
        for name in ("n_train", "n_val", "n_test", "n_ood"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        check_shift_order(self.delta_near, self.delta_far)
        self.domain_spec(ModelConfig(), 0)      # the spec's own checks

    def domain_spec(self, model: ModelConfig, seed: int) -> SyntheticDomainSpec:
        return SyntheticDomainSpec(
            num_classes=model.num_classes, modes_per_class=self.modes_per_class,
            feature_dim=model.feature_dim, mean_scale=self.mean_scale,
            noise_scale=self.noise_scale, seed=seed)


@dataclass
class ExperimentConfig:
    seed: int = 0
    out_dir: str = "runs/exp"
    variants: list = field(default_factory=lambda: ["map"])
    layers: object = "auto"          # "auto" or explicit list of block indices
    auto_top_k: int = 2
    model: ModelConfig = field(default_factory=ModelConfig)
    router: RouterSettings = field(default_factory=RouterSettings)
    train: TrainConfig = field(default_factory=TrainConfig)
    data: DataConfig = field(default_factory=DataConfig)
    perturbation: PerturbationSpec = field(default_factory=PerturbationSpec)

    def __post_init__(self):
        # A Philox key can pass through float64 (RngStream._generator), which
        # rounds a seed from 2**53 up, or a negative one wrapped to 2**64 - n.
        if not 0 <= self.seed < 2**53:
            raise ConfigError(f"seed must be in [0, 2**53), got {self.seed}")
        if not isinstance(self.variants, list):
            raise ConfigError("variants must be a list of variant names, "
                              f"got {self.variants!r}")
        if not self.variants:
            raise ConfigError("variants must name at least one variant")
        for v in self.variants:
            if v not in VARIANTS:
                raise ConfigError(f"unknown variant {v!r}")
            if self.variants.count(v) > 1:
                raise ConfigError(f"variant {v!r} given more than once")
        if self.layers != "auto":
            if not isinstance(self.layers, (list, tuple)) or not all(
                    type(i) is int for i in self.layers):
                raise ConfigError("layers must be 'auto' or a list of ints")
            self.layers = list(self.layers)
            bad = [i for i in self.layers
                   if not 0 <= i < self.model.num_blocks]
            if bad:
                raise ConfigError(f"layers {bad} out of range for "
                                  f"{self.model.num_blocks} blocks")
            twice = sorted({i for i in self.layers if self.layers.count(i) > 1})
            if twice:
                raise ConfigError(f"layers {twice} given more than once")
            routed = [v for v in self.variants if v != "map"]
            if not self.layers and routed:
                raise ConfigError(f"layers is empty, so variant {routed[0]!r} "
                                  "would leave every router MAP")
        if self.auto_top_k < 1:
            raise ConfigError("auto_top_k must be >= 1")
        if self.layers == "auto" and self.auto_top_k > self.model.num_blocks:
            raise ConfigError(f"auto_top_k {self.auto_top_k} exceeds the "
                              f"{self.model.num_blocks} blocks")


_NESTED = {"model": ModelConfig, "router": RouterSettings, "train": TrainConfig,
           "data": DataConfig, "perturbation": PerturbationSpec}


# Python types a field annotated with each name accepts.  A bool is never a
# number here, although Python makes it an int.
_SCALAR_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def _check_type(key: str, value, annotation: str) -> None:
    """Reject ``value`` unless it suits a scalar annotation such as
    ``int`` or ``int | None``; other annotations are left to the class.
    A float must be finite: ``json`` reads ``NaN`` and ``Infinity``."""
    names = annotation.split(" | ")
    allowed = tuple(t for n in names for t in _SCALAR_TYPES.get(n, ()))
    if not allowed or (value is None and "None" in names):
        return
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise ConfigError(f"{key} must be {annotation}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite {annotation}, got {value!r}")


def strict_build(cls, payload: dict, path: str):
    """``cls`` built from the JSON object ``payload`` found at ``path``
    (dotted, "" for the whole config): an unknown key, a value of the wrong
    type or one ``cls`` rejects raises :class:`ConfigError` naming it."""
    if not isinstance(payload, dict):
        raise ConfigError(f"{path or 'config'} must be an object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    where = f"{path}." if path else ""
    unknown = set(payload) - set(fields)
    if unknown:
        raise ConfigError(f"unknown key {where}{sorted(unknown)[0]}")
    kwargs = {}
    for key, value in payload.items():
        _check_type(where + key, value, fields[key].type)
        sub = _NESTED.get(key)
        if cls is ExperimentConfig and sub is not None:
            kwargs[key] = strict_build(sub, value, key)
        else:
            kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {path or 'config'}: {exc}") from exc


def config_from_dict(payload: dict) -> ExperimentConfig:
    return strict_build(ExperimentConfig, payload, "")


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_dict(payload)


def config_hash(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(dataclasses.asdict(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


# --------------------------------------------------------------------------
# run manifest
# --------------------------------------------------------------------------


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    config_hash: str
    code_version: str
    seed: int
    started_at: float
    finished_at: float = 0.0
    files: list = field(default_factory=list)

    def add_file(self, path) -> None:
        self.files.append({"path": os.path.basename(str(path)),
                           "sha256": file_sha256(path)})

    def finish(self) -> None:
        self.finished_at = time.time()


@contextlib.contextmanager
def atomic_open(path):
    """Binary handle on ``path``.tmp, moved onto ``path`` when the block
    exits cleanly.  On failure the tmp file is removed, so ``path`` is
    either complete or untouched: a partial file never appears on disk."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_manifest(manifest: RunManifest, path) -> None:
    text = json.dumps(dataclasses.asdict(manifest), indent=2, sort_keys=True)
    with atomic_open(path) as fh:
        fh.write((text + "\n").encode("utf-8"))
