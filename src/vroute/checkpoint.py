"""Self-describing model checkpoints.

A checkpoint is an .npz archive holding one array per named parameter plus
a JSON metadata record (format version, model dimensions, and per-layer
router variant and settings), so a model can be rebuilt without any
out-of-band information.  The stochastic layers are the ones whose variant
is not ``map``; the attached-layer list that earlier format-3 archives
also carry restates that and is not read.  Loading builds the model
dimensions and each router's settings as the config builds its sections,
with the same type checks, and rejects an archive whose metadata lacks an
entry, whose router list is not one entry per block, or whose parameters
are not exactly the model's, or not all finite.
"""
from __future__ import annotations

import dataclasses
import json

import numpy as np

from .config import atomic_open, strict_build
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
    }
    arrays = {f"param:{name}": p.data for name, p in model.param_items()}
    with atomic_open(path) as fh:
        np.savez(fh, __meta__=np.array(json.dumps(meta)), **arrays)


def _entries(record, where: str, *keys):
    """The values of ``keys`` in the metadata object ``record`` found at
    ``where``; a missing one raises ValueError naming it."""
    if not isinstance(record, dict):
        raise ValueError(f"checkpoint {where} must be an object")
    for key in keys:
        if key not in record:
            raise ValueError(f"checkpoint {where} has no {key}")
    return [record[key] for key in keys]


def load_checkpoint(path) -> MoEClassifier:
    with np.load(path, allow_pickle=False) as archive:
        meta = json.loads(str(archive["__meta__"]))
        version, model_meta, routers = _entries(
            meta, "metadata", "format_version", "model_config", "routers")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format {version}")
        config = strict_build(ModelConfig, model_meta, "model_config")
        if not isinstance(routers, list) or len(routers) != config.num_blocks:
            raise ValueError(f"checkpoint routers must be a list of "
                             f"{config.num_blocks} entries, one per block")
        model = MoEClassifier(config, RngStream(0).derive("checkpoint-rebuild"))
        for idx, entry in enumerate(routers):
            where = f"routers[{idx}]"
            variant, settings = _entries(entry, where, "variant", "settings")
            settings = strict_build(RouterSettings, settings,
                                    f"{where}.settings")
            if variant != "map":
                attach_variational_routers(
                    model, [idx], variant, RngStream(0).derive("attach"),
                    settings)
        params = dict(model.param_items())
        stored = {k[len("param:"):] for k in archive.files
                  if k.startswith("param:")}
        unmatched = sorted(stored ^ set(params))
        if unmatched:
            name = unmatched[0]
            state = "missing" if name in params else "not in the model"
            raise ValueError(f"checkpoint parameter {name} is {state}")
        for name, p in params.items():
            data = archive[f"param:{name}"].astype(np.float64)
            if data.shape != p.data.shape:
                raise ValueError(f"checkpoint shape mismatch for {name}")
            if not np.isfinite(data).all():
                raise ValueError(f"checkpoint parameter {name} is not finite")
            p.data = data
    return model
