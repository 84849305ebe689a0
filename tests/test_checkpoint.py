"""Checkpoints: save then load rebuilds a model whose predictive pass is bit
for bit the same, for every router variant, and an archive of the earlier
format or with bad metadata is refused with one error line."""
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


@pytest.mark.parametrize("variant", ["map", "vglr_fc", "vtsr"])
def test_archive_with_attached_layer_list_loads_bit_for_bit(tmp_path, variant):
    # Format-3 archives written before the stochastic layers were read off
    # the routers also carry the attached-layer list; it is not read.
    cfg, model = _model(variant)
    path = tmp_path / "model.npz"
    save_checkpoint(model, path)
    with np.load(path) as archive:
        meta = json.loads(str(archive["__meta__"]))
        arrays = {k: archive[k] for k in archive.files if k != "__meta__"}
    assert "variational_layer_indices" not in meta
    meta["variational_layer_indices"] = [] if variant == "map" else cfg.layers
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.array(json.dumps(meta)), **arrays)
    loaded = load_checkpoint(path)
    x = build_splits(cfg)["test"].features
    want = predict_with_uncertainty(model, x, rng=RngStream(3))
    got = predict_with_uncertainty(loaded, x, rng=RngStream(3))
    np.testing.assert_array_equal(got.probs, want.probs)
    np.testing.assert_array_equal(got.kl_per_token, want.kl_per_token)
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


def _set(name, value):
    def edit(arrays):
        arrays[name] = arrays[name].copy()
        arrays[name].flat[0] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    (_set("param:head", np.nan), "checkpoint parameter head is not finite"),
    (_set("param:block1.experts.w2", -np.inf),
     "checkpoint parameter block1.experts.w2 is not finite"),
    (lambda arrays: arrays.update({"param:bogus": np.zeros(3)}),
     "checkpoint parameter bogus is not in the model"),
    (lambda arrays: arrays.pop("param:head"),
     "checkpoint parameter head is missing"),
], ids=["nan", "inf", "extra", "missing"])
def test_archive_with_other_or_non_finite_parameters_is_one_error_line(
        tmp_path, capsys, edit, message):
    # A non-finite weight used to load and fail at the first forward, in
    # the op that met it; an extra array used to load silently.
    _, model = _model("map")
    path = tmp_path / "model.npz"
    save_checkpoint(model, path)
    with np.load(path) as archive:
        arrays = {k: archive[k] for k in archive.files}
    edit(arrays)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)

    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(CONFIG))
    out = tmp_path / "run"
    assert cli.main(["eval", "--config", str(cfg_path), "--out", str(out),
                     "--checkpoint", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("edit, message", [
    (lambda meta: meta["routers"][1]["settings"].update(eval_samples=4.0),
     "routers[1].settings.eval_samples must be int, got 4.0"),
    (lambda meta: meta["model_config"].update(hidden_dim=8.0),
     "model_config.hidden_dim must be int, got 8.0"),
    (lambda meta: meta["model_config"].update(width=8),
     "unknown key model_config.width"),
    (lambda meta: meta["routers"][0]["settings"].update(
        global_temperature=1e-310),
     "invalid routers[0].settings: global_temperature must be finite and "
     ">= 1e-06, got 1e-310"),
    (lambda meta: meta.pop("format_version"),
     "checkpoint metadata has no format_version"),
    (lambda meta: meta["routers"][1].pop("settings"),
     "checkpoint routers[1] has no settings"),
    (lambda meta: meta["routers"].append(meta["routers"][1]),
     "checkpoint routers must be a list of 2 entries, one per block"),
    # Checked in the experiment config alone, this loaded: eval and
    # sweep-temp ran, and stability read 1.0 in every cell.
    (lambda meta: meta["model_config"].update(top_k=4),
     "invalid model_config: top_k 4 must be below num_experts 4, or every "
     "expert is always selected"),
    (lambda meta: meta["model_config"].update(phi_hidden=16),
     "invalid model_config: phi_hidden 16 must not exceed hidden_dim 8"),
], ids=["float-eval_samples", "float-hidden_dim", "unknown-key",
        "tiny-temperature", "no-format_version", "no-settings",
        "extra-router", "top_k-all-experts", "phi_hidden-above-hidden"])
def test_archive_with_bad_metadata_is_one_error_line(tmp_path, capsys, edit,
                                                     message):
    # Metadata used to be read without the config's checks: a float
    # eval_samples or hidden_dim loaded and failed in predict, and an extra
    # router entry failed as an invalid block index.
    _, model = _model("vglr_mf")
    path = tmp_path / "model.npz"
    save_checkpoint(model, path)
    with np.load(path) as archive:
        meta = json.loads(str(archive["__meta__"]))
        arrays = {k: archive[k] for k in archive.files if k != "__meta__"}
    edit(meta)
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.array(json.dumps(meta)), **arrays)

    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(CONFIG))
    out = tmp_path / "run"
    assert cli.main(["eval", "--config", str(cfg_path), "--out", str(out),
                     "--variant", "vglr_mf", "--checkpoint", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists() or list(out.iterdir()) == []
