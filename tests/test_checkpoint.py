"""Checkpoints: save then load rebuilds a model whose predictive pass is bit
for bit the same, for every router variant, and an archive of the earlier
format is refused with one error line."""
import json

import numpy as np
import pytest

from vroute import cli
from vroute.checkpoint import FORMAT_VERSION, load_checkpoint, save_checkpoint
from vroute.config import config_from_dict
from vroute.experiment import build_model, build_splits
from vroute.model import attach_variational_routers, predict_with_uncertainty
from vroute.rng import RngStream
from vroute.routers import SIGNAL_NAMES, VARIANTS

CONFIG = {
    "seed": 0, "layers": [1],
    "model": {"feature_dim": 6, "hidden_dim": 8, "num_blocks": 2,
              "num_experts": 4, "num_classes": 3},
    "router": {"eval_samples": 4},
    "data": {"n_train": 120, "n_val": 40, "n_test": 40, "n_ood": 40},
}


def _model(variant):
    """A tiny model with ``variant`` attached; every parameter is moved off
    its initial value, so a parameter the loader misses shows up."""
    cfg = config_from_dict(CONFIG)
    model = build_model(cfg)
    if variant != "map":
        attach_variational_routers(model, cfg.layers, variant, RngStream(1),
                                   cfg.router)
    stream = RngStream(2)
    for _, p in model.param_items():
        p.data = p.data + 0.1 * stream.normal(p.data.shape)
    return cfg, model


def _assert_signals_equal(got, want):
    assert got.keys() == want.keys()
    for key in want:
        if want[key] is None:
            assert got[key] is None, key
        else:
            np.testing.assert_array_equal(got[key], want[key], err_msg=key)


@pytest.mark.parametrize("variant", VARIANTS)
def test_save_then_load_predicts_bit_for_bit(tmp_path, variant):
    cfg, model = _model(variant)
    save_checkpoint(model, tmp_path / "model.npz")
    loaded = load_checkpoint(tmp_path / "model.npz")
    x = build_splits(cfg)["test"].features
    want = predict_with_uncertainty(model, x, rng=RngStream(3))
    got = predict_with_uncertainty(loaded, x, rng=RngStream(3))
    np.testing.assert_array_equal(got.probs, want.probs)
    np.testing.assert_array_equal(got.kl_per_token, want.kl_per_token)
    assert set(want.signals) == set(SIGNAL_NAMES)
    _assert_signals_equal(got.signals, want.signals)


def test_format_2_archive_is_one_error_line(tmp_path, capsys):
    assert FORMAT_VERSION == 3
    _, model = _model("map")
    path = tmp_path / "model_v2.npz"
    save_checkpoint(model, path)
    # Mark it format 2; the loader refuses on the version before it reads
    # any parameter array, so the metadata layout does not matter here.
    with np.load(path) as archive:
        meta = json.loads(str(archive["__meta__"]))
        arrays = {k: archive[k] for k in archive.files if k != "__meta__"}
    meta["format_version"] = 2
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.array(json.dumps(meta)), **arrays)

    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(CONFIG))
    out = tmp_path / "run"
    assert cli.main(["eval", "--config", str(cfg_path), "--out", str(out),
                     "--checkpoint", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: unsupported checkpoint format 2"]
    assert not out.exists() or list(out.iterdir()) == []


def test_archive_with_extra_metadata_still_loads(tmp_path):
    # Older format 3 archives carry an ``extra`` record in their metadata;
    # the loader ignores it.
    _, model = _model("vtsr")
    path = tmp_path / "model.npz"
    save_checkpoint(model, path)
    with np.load(path) as archive:
        meta = json.loads(str(archive["__meta__"]))
        arrays = {k: archive[k] for k in archive.files if k != "__meta__"}
    meta["extra"] = {"variant": "vtsr", "seed": 0}
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.array(json.dumps(meta)), **arrays)
    loaded = load_checkpoint(path)
    for (name, want), (_, got) in zip(model.param_items(),
                                      loaded.param_items(), strict=True):
        np.testing.assert_array_equal(got.data, want.data, err_msg=name)
