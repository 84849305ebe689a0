"""`vroute` runs: the early-stopping decision of each stage can be recomputed
from ``metrics_train.csv`` and ``config_resolved.json`` alone, a failed run
prints one error line, exits 1 and leaves no artifacts, and a write that
fails midway leaves no partial file."""
import csv
import json

import numpy as np
import pytest

from vroute import cli, experiment
from vroute.checkpoint import load_checkpoint, save_checkpoint
from vroute.config import ConfigError, config_from_dict
from vroute.experiment import build_splits
from vroute.rng import RngStream
from vroute.training import predictive_nll_acc

TINY = {
    "seed": 0, "variants": ["map", "vglr_mf"], "layers": [1],
    "model": {"feature_dim": 6, "hidden_dim": 8, "num_blocks": 2,
              "num_experts": 4, "num_classes": 3},
    "router": {"eval_samples": 4},
    "train": {"epochs_stage1": 3, "epochs_stage2": 4, "kl_weight": 10.0,
              "learning_rate_stage2": 1e-2, "early_stop_patience": 4},
    "data": {"n_train": 120, "n_val": 40, "n_test": 40, "n_ood": 40},
}


def _write_config(tmp_path, **overrides):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(dict(TINY, **overrides)))
    return cfg_path


def _train(tmp_path):
    cfg_path = _write_config(tmp_path)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
    with open(out / "metrics_train.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    resolved = json.loads((out / "config_resolved.json").read_text())
    return out, rows, resolved


def test_restored_stage2_epoch_recomputable_from_artifacts(tmp_path):
    out, rows, resolved = _train(tmp_path)
    stage1 = [r for r in rows if r["stage"] == "stage1"]
    stage2 = [r for r in rows if r["stage"] == "stage2"]
    assert [float(r["val_kl"]) for r in stage1] == [0.0] * len(stage1)
    assert stage2 and all(float(r["val_kl"]) > 0.0 for r in stage2)

    beta = resolved["train"]["kl_weight"]
    nll = np.array([float(r["val_nll"]) for r in stage2])
    kl = np.array([float(r["val_kl"]) for r in stage2])
    pick = int(np.argmin(nll + beta * kl))
    assert pick != int(np.argmin(nll))     # the KL term decides the pick here
    best = stage2[pick]

    # The checkpoint holds that epoch: its val pass reproduces the logged row.
    cfg = config_from_dict(resolved)
    model = load_checkpoint(out / "model_vglr_mf.npz")
    stream = RngStream(cfg.seed).derive("stage2").derive("val")
    got = predictive_nll_acc(model, build_splits(cfg)["val"], stream)
    assert got == (float(best["val_nll"]), float(best["val_acc"]),
                   float(best["val_kl"]))


def _left_behind(out):
    return sorted(p.name for p in out.iterdir()) if out.exists() else []


def test_out_of_range_layers_rejected_before_any_write(tmp_path, capsys):
    with pytest.raises(ConfigError, match="layers"):
        config_from_dict(dict(TINY, layers=[99]))
    out = tmp_path / "run"
    cfg_path = _write_config(tmp_path, layers=[99])
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert _left_behind(out) == []


def test_failed_run_removes_checkpoints_already_written(tmp_path, monkeypatch,
                                                        capsys):
    out = tmp_path / "run"
    seen = []

    def failing_stage2(*args, **kwargs):
        seen.append((out / "model_map.npz").exists())
        raise RuntimeError("injected stage-2 failure")

    monkeypatch.setattr(experiment, "stage2_train", failing_stage2)
    cfg_path = _write_config(tmp_path)
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert seen == [True]
    assert "error: injected stage-2 failure" in capsys.readouterr().err
    assert _left_behind(out) == []


@pytest.mark.parametrize("command", ["train", "eval", "ood", "stability",
                                     "sweep-temp"])
def test_config_error_is_one_error_line(tmp_path, capsys, command):
    cfg_path = tmp_path / "config.json"
    out = tmp_path / "run"
    for bad, message in (({"sed": 1}, "unknown key sed"),
                         ({"router": {"kl_weight": 0.1}},
                          "unknown key router.kl_weight"),
                         ({"train": {"optimizer": "adam"}},
                          "unknown key train.optimizer"),
                         ({"train": {"early_stop_metric": "val_nll"}},
                          "unknown key train.early_stop_metric"),
                         ({"train": {"seed": 1}}, "unknown key train.seed"),
                         ({"perturbation": {"seed": 1}},
                          "unknown key perturbation.seed"),
                         ({"router": {"train_samples": 1}},
                          "unknown key router.train_samples"),
                         ({"data": {"feature_dim": 6}},
                          "unknown key data.feature_dim"),
                         ({"data": {"num_classes": 3}},
                          "unknown key data.num_classes"),
                         ({"data": {"seed": 1}}, "unknown key data.seed"),
                         ({"data": {"rotation_angle": 0.5}},
                          "unknown key data.rotation_angle")):
        cfg_path.write_text(json.dumps(bad))
        assert cli.main([command, "--config", str(cfg_path),
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert _left_behind(out) == []


@pytest.mark.parametrize("section, bad, message", [
    ("router", {"dropout_rate": 1.5}, "dropout_rate must be in [0, 1)"),
    ("router", {"global_temperature": 0}, "global_temperature must be > 0"),
    ("model", {"num_experts": 4, "top_k": 5},
     "top_k must not exceed num_experts"),
], ids=["dropout_rate", "global_temperature", "top_k"])
def test_bad_router_setting_rejected_at_load(section, bad, message):
    # Checked when the config is built, before any stage trains.
    payload = dict(TINY, **{section: dict(TINY[section], **bad)})
    with pytest.raises(ConfigError) as err:
        config_from_dict(payload)
    assert str(err.value) == f"invalid {section}: {message}"


@pytest.mark.parametrize("payload, key", [
    ({"router": {"eval_samples": 2.5}}, "router.eval_samples"),
    ({"router": {"eval_samples": True}}, "router.eval_samples"),
    ({"model": {"top_k": 2.0}}, "model.top_k"),
    ({"train": {"batch_size": 16.5}}, "train.batch_size"),
    ({"train": {"kl_weight": False}}, "train.kl_weight"),
    ({"perturbation": {"repeats": 1.5}}, "perturbation.repeats"),
    ({"seed": "3"}, "seed"),
    ({"out_dir": 3}, "out_dir"),
], ids=["float-int", "bool-int", "float-top_k", "float-batch_size",
        "bool-float", "float-repeats", "str-seed", "int-str"])
def test_value_of_wrong_type_rejected_at_load(payload, key):
    with pytest.raises(ConfigError) as err:
        config_from_dict(payload)
    assert str(err.value).startswith(f"{key} must be ")


def test_int_accepted_for_float_setting():
    assert config_from_dict({"train": {"kl_weight": 1}}).train.kl_weight == 1


def test_bool_layer_index_rejected():
    with pytest.raises(ConfigError, match="layers must be 'auto' or a list"):
        config_from_dict({"layers": [True]})


@pytest.mark.parametrize("command", ["eval", "ood"])
def test_samples_flag_is_not_accepted(command, capsys):
    # The pass count is the checkpoint routers' eval_samples.
    with pytest.raises(SystemExit) as err:
        cli.main([command, "--config", "config.json", "--samples", "4"])
    assert err.value.code == 2
    assert "--samples" in capsys.readouterr().err


def test_checkpoint_failing_mid_write_leaves_no_file(tmp_path, monkeypatch):
    def savez_then_fail(fh, **arrays):
        fh.write(b"PK\x03\x04 half an archive")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", savez_then_fail)
    model = experiment.build_model(config_from_dict(TINY))
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(model, tmp_path / "model_map.npz")
    assert _left_behind(tmp_path) == []
