"""Self-describing model checkpoints.

A checkpoint is an .npz archive holding one array per named parameter plus
a JSON metadata record (format version, model dimensions, per-layer router
variant and settings, and the attached-layer list), so a model can be
rebuilt without any out-of-band information.
"""
from __future__ import annotations

import dataclasses
import json

import numpy as np

from .config import atomic_open
from .model import ModelConfig, MoEClassifier, attach_variational_routers
from .rng import RngStream
from .routers import RouterSettings

FORMAT_VERSION = 3


def save_checkpoint(model: MoEClassifier, path) -> None:
    meta = {
        "format_version": FORMAT_VERSION,
        "model_config": dataclasses.asdict(model.config),
        "routers": [
            {"variant": blk.moe.router.variant,
             "settings": dataclasses.asdict(blk.moe.router.settings)}
            for blk in model.blocks
        ],
        "variational_layer_indices": list(model.variational_layer_indices),
    }
    arrays = {f"param:{name}": p.data for name, p in model.param_items()}
    with atomic_open(path) as fh:
        np.savez(fh, __meta__=np.array(json.dumps(meta)), **arrays)


def load_checkpoint(path) -> MoEClassifier:
    with np.load(path, allow_pickle=False) as archive:
        meta = json.loads(str(archive["__meta__"]))
        if meta["format_version"] != FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format "
                             f"{meta['format_version']}")
        model = MoEClassifier(ModelConfig(**meta["model_config"]),
                              RngStream(0).derive("checkpoint-rebuild"))
        for idx, entry in enumerate(meta["routers"]):
            if entry["variant"] != "map":
                attach_variational_routers(
                    model, [idx], entry["variant"], RngStream(0).derive("attach"),
                    RouterSettings(**entry["settings"]))
        model.variational_layer_indices = [
            int(i) for i in meta["variational_layer_indices"]]
        for name, p in model.param_items():
            stored = archive[f"param:{name}"]
            if stored.shape != p.data.shape:
                raise ValueError(f"checkpoint shape mismatch for {name}")
            p.data = stored.astype(np.float64)
    return model
