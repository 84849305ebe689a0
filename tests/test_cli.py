"""`vroute` runs: the early-stopping decision of each stage can be recomputed
from ``metrics_train.csv`` and ``config_resolved.json`` alone, a failed run
prints one error line, exits 1 and leaves no artifacts, and a write that
fails midway leaves no partial file."""
import argparse
import csv
import hashlib
import json
from xml.etree import ElementTree

import numpy as np
import pytest

from vroute import cli, experiment
from vroute.checkpoint import load_checkpoint, save_checkpoint
from vroute.config import ConfigError, config_from_dict
from vroute.experiment import build_splits
from vroute.model import attach_variational_routers
from vroute.rng import RngStream
from vroute.routers import VARIANTS, RouterSettings
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


def test_interrupted_run_removes_checkpoints_already_written(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    # A KeyboardInterrupt in the second variant's stage 2 used to leave
    # model_map.npz and model_vglr_mf.npz and no manifest.
    out = tmp_path / "run"
    seen = []
    stage2 = experiment.stage2_train

    def interrupted_stage2(*args, **kwargs):
        seen.append(sorted(p.name for p in out.glob("model_*.npz")))
        if len(seen) == 2:
            raise KeyboardInterrupt
        return stage2(*args, **kwargs)

    monkeypatch.setattr(experiment, "stage2_train", interrupted_stage2)
    cfg_path = _write_config(tmp_path, variants=["map", "vglr_mf", "vtsr"])
    with pytest.raises(KeyboardInterrupt):
        cli.main(["train", "--config", str(cfg_path), "--out", str(out)])
    assert seen == [["model_map.npz"], ["model_map.npz", "model_vglr_mf.npz"]]
    assert capsys.readouterr().err == ""
    assert _left_behind(out) == []


@pytest.mark.parametrize("overrides", [
    {"model": dict(TINY["model"], num_experts=2, top_k=1)},
    # 16 experts take tensor._pairwise's running sums; one sample per token
    # makes predict one pass.
    {"model": dict(TINY["model"], num_experts=16),
     "router": {"eval_samples": 1}},
    {"model": dict(TINY["model"], num_blocks=1), "layers": [0]},
], ids=["two-experts-top-1", "sixteen-experts-one-sample", "one-block"])
def test_every_variant_through_every_subcommand(tmp_path, overrides):
    # Shapes the golden pin (4 experts, top-2, 2 blocks, 4 samples) does not
    # cover.
    cfg_path = _write_config(tmp_path, variants=list(VARIANTS),
                             train={"epochs_stage1": 1, "epochs_stage2": 1},
                             **overrides)
    cfg = config_from_dict(json.loads(cfg_path.read_text()))
    out = tmp_path / "run"

    def vroute(command, *argv):
        args = [command, *argv, "--out", str(out)]
        if command != "efficiency":
            args += ["--config", str(cfg_path)]
        assert cli.main(args) == 0, args
        assert (out / cli.ARTIFACTS[command][-1]).exists(), args

    vroute("train")
    for variant in VARIANTS:
        for command in ("eval", "ood", "stability", "sweep-temp"):
            vroute(command, "--variant", variant)
    vroute("efficiency", "--layers", str(len(cfg.layers)),
           "--experts", str(cfg.model.num_experts),
           "--dim", str(cfg.model.hidden_dim),
           "--width", str(cfg.model.phi_hidden),
           "--samples", str(cfg.router.eval_samples))


def _stability_svg(out, cfg_path):
    return cli.main(["stability", "--config", str(cfg_path), "--out", str(out),
                     "--variant", "vglr_mf", "--svg"])


def test_stability_svg_is_one_polyline_per_layer_in_the_manifest(tmp_path):
    out, _, _ = _train(tmp_path)
    assert _stability_svg(out, tmp_path / "config.json") == 0
    svg = out / "stability_vglr_mf.svg"
    root = ElementTree.parse(svg).getroot()
    polylines = root.findall("{http://www.w3.org/2000/svg}polyline")
    with open(out / "stability_vglr_mf.csv", encoding="utf-8") as fh:
        layers = {row["layer"] for row in csv.DictReader(fh)}
    assert len(polylines) == len(layers) == TINY["model"]["num_blocks"]
    manifest = json.loads((out / "manifest_stability.json").read_text())
    assert {"path": svg.name,
            "sha256": hashlib.sha256(svg.read_bytes()).hexdigest()
            } in manifest["files"]


def test_failed_stability_svg_run_leaves_no_svg(tmp_path, monkeypatch, capsys):
    out, _, _ = _train(tmp_path)
    before = _left_behind(out)

    def failing_manifest(*args, **kwargs):
        assert (out / "stability_vglr_mf.svg").exists()
        raise RuntimeError("injected manifest failure")

    monkeypatch.setattr(cli, "write_manifest", failing_manifest)
    assert _stability_svg(out, tmp_path / "config.json") == 1
    assert "error: injected manifest failure" in capsys.readouterr().err
    assert _left_behind(out) == before


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


@pytest.mark.parametrize("section, bad, error", [
    ("router", {"dropout_rate": 1.5},
     "invalid router: dropout_rate must be in [0, 1)"),
    ("router", {"global_temperature": 0},
     "invalid router: global_temperature must be finite and >= 1e-06, "
     "got 0"),
    # Below the floor the scaled logits overflow: this loaded and trained,
    # then eval --variant temp_scale failed on non-finite values.
    ("router", {"global_temperature": 1e-310},
     "invalid router: global_temperature must be finite and >= 1e-06, "
     "got 1e-310"),
    ("model", {"num_experts": 4, "top_k": 5},
     "invalid model: top_k 5 must be below num_experts 4, or every expert "
     "is always selected"),
    # Every expert always selected: stability wrote 1.0 in every cell.
    ("model", {"num_experts": 4, "top_k": 4},
     "invalid model: top_k 4 must be below num_experts 4, or every expert "
     "is always selected"),
    ("perturbation", {"gamma_levels": [float("nan")]},
     "invalid perturbation: noise levels must be finite and > 0"),
    ("perturbation", {"gamma_levels": [0.01, float("inf")]},
     "invalid perturbation: noise levels must be finite and > 0"),
    ("perturbation", {"gamma_levels": []},
     "invalid perturbation: gamma_levels must not be empty"),
    ("train", {"learning_rate": -0.001},
     "invalid train: learning rates must be > 0"),
    ("train", {"learning_rate_stage2": 0.0},
     "invalid train: learning rates must be > 0"),
    ("train", {"kl_weight": -1.0}, "invalid train: kl_weight must be >= 0"),
    ("train", {"early_stop_patience": -2},
     "invalid train: early_stop_patience must be >= 1"),
], ids=["dropout_rate", "global_temperature", "tiny-global_temperature",
        "top_k", "top_k-all-experts",
        "nan-gamma", "inf-gamma", "no-gamma", "negative-lr", "zero-lr-stage2",
        "negative-kl_weight", "negative-patience"])
def test_bad_router_setting_rejected_at_load(section, bad, error):
    # Checked when the config is built, before any stage trains.
    payload = dict(TINY, **{section: dict(TINY.get(section, {}), **bad)})
    with pytest.raises(ConfigError) as err:
        config_from_dict(payload)
    assert str(err.value) == error


@pytest.mark.parametrize("bad, message", [
    ({"n_val": 0}, "n_val must be >= 1"),
    ({"n_ood": 0}, "n_ood must be >= 1"),
    ({"n_test": -5}, "n_test must be >= 1"),
    ({"delta_near": 3, "delta_far": 1},
     "ordering violation: require 0 < delta_near < delta_far"),
    # A zero near shift draws the in-distribution pool's own rows.
    ({"delta_near": 0},
     "ordering violation: require 0 < delta_near < delta_far"),
    ({"modes_per_class": 0},
     "num_classes, modes_per_class, feature_dim must be >= 1"),
    ({"noise_scale": 0}, "noise_scale must be > 0"),
], ids=["no-val", "no-ood", "negative-test", "deltas-reversed",
        "zero-near-shift", "no-modes", "no-noise"])
def test_bad_data_setting_is_one_error_line_at_load(tmp_path, capsys, bad,
                                                    message):
    # Checked when the config loads, before any command does work.
    out = tmp_path / "run"
    cfg_path = _write_config(tmp_path, data=dict(TINY["data"], **bad))
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: invalid data: {message}"]
    assert _left_behind(out) == []


@pytest.mark.parametrize("overrides, message", [
    ({"variants": []}, "variants must name at least one variant"),
    ({"variants": ["vglr_mf", "map", "vglr_mf"]},
     "variant 'vglr_mf' given more than once"),
    ({"layers": []},
     "layers is empty, so variant 'vglr_mf' would leave every router MAP"),
    ({"layers": [1, 0, 1]}, "layers [1] given more than once"),
    ({"variants": ["bogus"]}, "unknown variant 'bogus'"),
    ({"layers": "auto", "auto_top_k": 0}, "auto_top_k must be >= 1"),
    ({"layers": "auto", "auto_top_k": 9}, "auto_top_k 9 exceeds the 2 blocks"),
    ({"variants": "vglr_mf"},
     "variants must be a list of variant names, got 'vglr_mf'"),
], ids=["no-variants", "repeated-variant", "no-layers", "repeated-layer",
        "unknown-variant", "no-auto-layers", "too-many-auto-layers",
        "variants-string"])
def test_bad_variant_or_layer_list_is_one_error_line_at_load(
        tmp_path, capsys, overrides, message):
    # Each would train and exit 0 with nothing to evaluate, with a variant
    # trained twice, with a "variational" checkpoint that is all MAP, with
    # a repeated layer silently attached once, or with every block selected
    # for fewer than asked; a string of variants was read letter by letter.
    out = tmp_path / "run"
    cfg_path = _write_config(tmp_path, **overrides)
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: invalid config: {message}"]
    assert _left_behind(out) == []


def test_empty_layers_accepted_for_map_only():
    assert config_from_dict(dict(TINY, variants=["map"], layers=[])).layers == []


@pytest.mark.parametrize("seed", [-1, 2**53, 2**53 + 1, 2**64])
@pytest.mark.parametrize("where", ["config", "flag"])
def test_seed_outside_exact_range_is_one_error_line_at_load(tmp_path, capsys,
                                                            seed, where):
    # -1 wrapped to 2**64 - 1 and warned in a float64 cast; 2**53 + 1 drew
    # the numbers of 2**53, since a Philox key can pass through float64.
    ckpt = tmp_path / "model_map.npz"
    save_checkpoint(experiment.build_model(config_from_dict(TINY)), ckpt)
    overrides = {"seed": seed} if where == "config" else {}
    cfg_path = _write_config(tmp_path, **overrides)
    out = tmp_path / "run"
    argv = ["eval", "--config", str(cfg_path), "--variant", "map",
            "--checkpoint", str(ckpt), "--out", str(out)]
    if where == "flag":
        argv.append(f"--seed={seed}")
    assert cli.main(argv) == 1
    message = f"seed must be in [0, 2**53), got {seed}"
    if where == "config":
        message = f"invalid config: {message}"
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert _left_behind(out) == []


def test_largest_exact_seed_accepted():
    assert config_from_dict(dict(TINY, seed=2**53 - 1)).seed == 2**53 - 1


# Each subcommand's options as build_parser() builds them.  An option added
# or removed fails here until this table, the README and CHANGES.md say so.
CLI_OPTIONS = {
    "train": ["--config", "--seed", "--out", "--variant"],
    "eval": ["--config", "--seed", "--out", "--variant", "--checkpoint",
             "--split", "--data"],
    "ood": ["--config", "--seed", "--out", "--variant", "--checkpoint"],
    "stability": ["--config", "--seed", "--out", "--variant", "--checkpoint",
                  "--svg"],
    "sweep-temp": ["--config", "--seed", "--out", "--variant", "--checkpoint",
                   "--grid", "--layers"],
    "efficiency": ["--granite", "--layers", "--experts", "--dim", "--width",
                   "--samples", "--base-params", "--base-macs", "--out"],
}


def test_every_subcommand_takes_the_listed_options():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    got = {name: [o for a in p._actions for o in a.option_strings
                  if o not in ("-h", "--help")]
           for name, p in sub.choices.items()}
    assert got == CLI_OPTIONS


@pytest.mark.parametrize("section, bad, message", [
    ("router", {"eval_samples": 0}, "eval_samples must be >= 1"),
    ("perturbation", {"repeats": 0}, "repeats must be >= 1"),
    ("train", {"epochs_stage1": -1}, "epoch counts must be >= 0"),
    ("train", {"batch_size": 0}, "batch_size must be >= 1"),
    ("model", {"hidden_dim": 0}, "all model dimensions must be >= 1"),
    # A width-0 inference net trained; a negative one failed after stage 1.
    ("model", {"phi_hidden": 0}, "all model dimensions must be >= 1"),
    ("model", {"phi_hidden": -1}, "all model dimensions must be >= 1"),
    # stability would write two rows per layer at the repeated gamma.
    ("perturbation", {"gamma_levels": [0.05, 0.01, 0.05]},
     "gamma_levels [0.05] given more than once"),
    # "12" loaded as (1.0, 2.0), [true, 0.5] as (1.0, 0.5), ["0.5"] as
    # (0.5,); a bare number failed on iterating a float.
    ("perturbation", {"gamma_levels": "12"},
     "gamma_levels must be a list of numbers, got '12'"),
    ("perturbation", {"gamma_levels": [True, 0.5]},
     "gamma_levels must be a list of numbers, got [True, 0.5]"),
    ("perturbation", {"gamma_levels": ["0.5"]},
     "gamma_levels must be a list of numbers, got ['0.5']"),
    ("perturbation", {"gamma_levels": 0.01},
     "gamma_levels must be a list of numbers, got 0.01"),
    ("model", {"top_k": 4},
     "top_k 4 must be below num_experts 4, or every expert is always "
     "selected"),
], ids=["no-eval-samples", "no-repeats", "negative-epochs", "no-batch",
        "no-hidden", "no-phi-hidden", "negative-phi-hidden", "repeated-gamma",
        "gamma-string", "gamma-bool", "gamma-of-strings", "gamma-number",
        "top_k-all-experts"])
def test_bad_section_setting_is_one_error_line_at_load(tmp_path, capsys,
                                                       section, bad, message):
    out = tmp_path / "run"
    cfg_path = _write_config(tmp_path,
                             **{section: dict(TINY.get(section, {}), **bad)})
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: invalid {section}: {message}"]
    assert _left_behind(out) == []


def _json_error(text):
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        return f"config is not valid JSON: {exc}"
    raise AssertionError(f"{text!r} is valid JSON")


@pytest.mark.parametrize("text, message", [
    (json.dumps(dict(TINY, model=3)), "model must be an object"),
    ('{"seed": 0,', _json_error('{"seed": 0,')),
    ("", _json_error("")),
], ids=["section-not-object", "truncated", "empty"])
def test_malformed_config_file_is_one_error_line(tmp_path, capsys, text,
                                                 message):
    out = tmp_path / "run"
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(text)
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert _left_behind(out) == []


@pytest.mark.parametrize("payload, key", [
    ({"router": {"eval_samples": 2.5}}, "router.eval_samples"),
    ({"router": {"eval_samples": True}}, "router.eval_samples"),
    ({"model": {"top_k": 2.0}}, "model.top_k"),
    ({"train": {"batch_size": 16.5}}, "train.batch_size"),
    ({"train": {"kl_weight": False}}, "train.kl_weight"),
    ({"perturbation": {"repeats": 1.5}}, "perturbation.repeats"),
    ({"seed": "3"}, "seed"),
    ({"out_dir": 3}, "out_dir"),
    # json reads the NaN and Infinity literals as floats.
    (json.loads('{"perturbation": {"diagnostic_gamma": Infinity}}'),
     "perturbation.diagnostic_gamma"),
    (json.loads('{"router": {"global_temperature": NaN}}'),
     "router.global_temperature"),
    (json.loads('{"train": {"kl_weight": -Infinity}}'), "train.kl_weight"),
], ids=["float-int", "bool-int", "float-top_k", "float-batch_size",
        "bool-float", "float-repeats", "str-seed", "int-str", "inf-float",
        "nan-float", "minus-inf-float"])
def test_value_of_wrong_type_rejected_at_load(payload, key):
    with pytest.raises(ConfigError) as err:
        config_from_dict(payload)
    assert str(err.value).startswith(f"{key} must be ")


@pytest.mark.parametrize("dims", [
    [], ["--layers", "2", "--experts", "4", "--dim", "8", "--width", "4"],
], ids=["none", "no-samples"])
def test_efficiency_without_granite_or_every_dimension_is_one_error_line(
        tmp_path, capsys, dims):
    out = tmp_path / "eff"
    assert cli.main(["efficiency", *dims, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: either --granite or all of --layers, --experts, --dim, "
        "--width, --samples"]
    assert _left_behind(out) == []


@pytest.mark.parametrize("flags", [
    ["--experts", "8", "--dim", "32", "--width", "8", "--samples", "35",
     "--base-params", "1e6"],
    ["--layers", "2"], ["--base-macs", "800e6"],
], ids=["dimensions", "layers", "base-macs"])
def test_efficiency_granite_with_a_dimension_flag_is_one_error_line(
        tmp_path, capsys, flags):
    # Each would write the Granite table as if the flags were not given.
    out = tmp_path / "eff"
    assert cli.main(["efficiency", "--granite", *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: --granite takes no --layers, --experts, --dim, --width, "
        "--samples, --base-params or --base-macs"]
    assert _left_behind(out) == []


def test_efficiency_dimensions_default_to_an_800m_base(tmp_path):
    out = tmp_path / "eff"
    assert cli.main(["efficiency", "--layers", "2", "--experts", "4",
                     "--dim", "8", "--width", "4", "--samples", "3",
                     "--out", str(out)]) == 0
    spec = json.loads((out / "efficiency.json").read_text())["spec"]
    assert spec["base_active_params"] == spec["base_macs_per_token"] == 800e6


@pytest.mark.parametrize("flag, value", [("--base-params", "nan"),
                                         ("--base-macs", "inf")])
def test_non_finite_base_cost_is_one_error_line(tmp_path, capsys, flag,
                                                 value):
    out = tmp_path / "eff"
    assert cli.main(["efficiency", "--layers", "2", "--experts", "4",
                     "--dim", "8", "--width", "4", "--samples", "3",
                     f"{flag}={value}", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: base costs must be finite and > 0"]
    assert _left_behind(out) == []



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


@pytest.mark.parametrize("key, value", [("num_classes", 2), ("feature_dim", 5)])
@pytest.mark.parametrize("command", ["eval", "ood", "stability", "sweep-temp"])
def test_checkpoint_disagreeing_with_config_is_one_error_line(
        tmp_path, capsys, command, key, value):
    checkpoint = tmp_path / "model_map.npz"
    save_checkpoint(experiment.build_model(config_from_dict(TINY)), checkpoint)
    out = tmp_path / "run"
    cfg_path = _write_config(tmp_path, model=dict(TINY["model"], **{key: value}))
    assert cli.main([command, "--config", str(cfg_path), "--out", str(out),
                     "--variant", "map", "--checkpoint", str(checkpoint)]) == 1
    have = TINY["model"][key]
    assert capsys.readouterr().err.splitlines() == [
        f"error: checkpoint {checkpoint} has {key} {have}, but the config's "
        f"model.{key} is {value}"]
    assert _left_behind(out) == []


@pytest.mark.parametrize("command", ["eval", "ood", "stability", "sweep-temp"])
def test_per_variant_command_on_several_variants_is_one_error_line(
        tmp_path, capsys, monkeypatch, command):
    # It ran the first variant only, with exit 0.
    def no_load(path):
        raise AssertionError("the checkpoint was loaded")

    monkeypatch.setattr(cli, "load_checkpoint", no_load)
    out = tmp_path / "run"
    cfg_path = _write_config(tmp_path, variants=["map", "vglr_mf", "vtsr"])
    assert cli.main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {command} runs one variant: give --variant (the config "
        "names map, vglr_mf, vtsr)"]
    assert _left_behind(out) == []


@pytest.mark.parametrize("row, message", [
    (("efficiency.json", "manifest_efficiency.json"),
     "efficiency writes no efficiency.csv"),
    (("efficiency.json", "efficiency.csv", "manifest_{variant}.json"),
     "manifest_{variant}.json needs a variant"),
], ids=["not-in-row", "no-variant"])
def test_artifact_outside_the_table_is_one_error_line(tmp_path, capsys,
                                                      monkeypatch, row,
                                                      message):
    monkeypatch.setitem(cli.ARTIFACTS, "efficiency", row)
    out = tmp_path / "run"
    assert cli.main(["efficiency", "--granite", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert _left_behind(out) == []


def _checkpoint_of(tmp_path, variant):
    """An untrained TINY checkpoint routed at block 1 by ``variant``."""
    model = experiment.build_model(config_from_dict(TINY))
    if variant != "map":
        attach_variational_routers(model, [1], variant, RngStream(0),
                                   RouterSettings(eval_samples=4))
    path = tmp_path / f"model_{variant}.npz"
    save_checkpoint(model, path)
    return path


@pytest.mark.parametrize("saved, tag", [
    ("vtsr", "vglr_mf"), ("vglr_fc", "vglr_mf"), ("vtsr", "map"),
    ("map", "vtsr"),
])
@pytest.mark.parametrize("command", ["eval", "ood", "stability", "sweep-temp"])
def test_checkpoint_of_another_variant_is_one_error_line(
        tmp_path, capsys, command, saved, tag):
    # Each would write artifacts tagged ``tag`` from the ``saved`` model.
    checkpoint = _checkpoint_of(tmp_path, saved)
    out = tmp_path / "run"
    cfg_path = _write_config(tmp_path)
    assert cli.main([command, "--config", str(cfg_path), "--out", str(out),
                     "--variant", tag, "--checkpoint", str(checkpoint)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: checkpoint {checkpoint} routes with {saved}, but the "
        f"variant is {tag}"]
    assert _left_behind(out) == []


def _sweep(tmp_path, *extra, **config):
    """Run ``sweep-temp`` on a two-block MAP checkpoint; returns the exit
    code and the output directory."""
    checkpoint = tmp_path / "model_map.npz"
    save_checkpoint(experiment.build_model(config_from_dict(TINY)), checkpoint)
    out = tmp_path / "run"
    cfg_path = _write_config(tmp_path, **config)
    code = cli.main(["sweep-temp", "--config", str(cfg_path), "--out", str(out),
                     "--variant", "map", "--checkpoint", str(checkpoint),
                     "--grid", "0.5", *extra])
    return code, out


@pytest.mark.parametrize("layers, bad", [("-1", -1), ("7", 7), ("0,2", 2)])
def test_sweep_layer_outside_checkpoint_is_one_error_line(tmp_path, capsys,
                                                          layers, bad):
    code, out = _sweep(tmp_path, f"--layers={layers}")
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: --layers: block {bad} is not in the checkpoint's 2 blocks"]
    assert _left_behind(out) == []


def test_sweep_defaults_to_the_checkpoint_blocks(tmp_path):
    # The config claims three blocks; the checkpoint it loads has two.
    code, out = _sweep(tmp_path, model=dict(TINY["model"], num_blocks=3))
    assert code == 0
    with open(out / "sweep_temp.csv", encoding="utf-8") as fh:
        assert [row["layer"] for row in csv.DictReader(fh)] == ["0", "1"]


# 1e-310 passed the check and failed mid-sweep on non-finite values.
@pytest.mark.parametrize("grid", ["nan", "inf", "0", "-1", "", "0.5,", "x",
                                  "1e-310", "0.1,1e-310", "9e-7"])
def test_bad_sweep_grid_is_one_error_line_before_any_work(tmp_path, capsys,
                                                          monkeypatch, grid):
    def no_load(*args):
        raise AssertionError("the checkpoint was loaded")

    monkeypatch.setattr(cli, "_load_model", no_load)
    code, out = _sweep(tmp_path, f"--grid={grid}")
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: --grid {grid!r}: temperatures must be comma-separated "
        "numbers, each finite and >= 1e-06"]
    assert not (out / "sweep_temp.csv").exists()
    assert _left_behind(out) == []


# An empty --layers is a list with no valid block, not the default.
@pytest.mark.parametrize("layers", ["1,x", "x", "1,", ",", "0.5", "1;2", ""])
def test_bad_sweep_layers_is_one_error_line_before_any_work(tmp_path, capsys,
                                                            monkeypatch,
                                                            layers):
    def no_load(*args):
        raise AssertionError("the checkpoint was loaded")

    monkeypatch.setattr(cli, "_load_model", no_load)
    code, out = _sweep(tmp_path, f"--layers={layers}")
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: --layers {layers!r}: blocks must be comma-separated integers"]
    assert not (out / "sweep_temp.csv").exists()
    assert _left_behind(out) == []


@pytest.mark.parametrize("flag, value, repeated", [
    ("--layers", "1,1", "1"), ("--layers", "1,0,1,0", "0,1"),
    ("--grid", "0.5,0.5", "0.5"), ("--grid", "2,0.5,2.0", "2.0"),
])
def test_repeated_sweep_entry_is_one_error_line_before_any_work(
        tmp_path, capsys, monkeypatch, flag, value, repeated):
    def no_load(*args):
        raise AssertionError("the checkpoint was loaded")

    monkeypatch.setattr(cli, "_load_model", no_load)
    code, out = _sweep(tmp_path, f"{flag}={value}")
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {flag} {value!r}: {repeated} given more than once"]
    assert _left_behind(out) == []


@pytest.mark.parametrize("value, message", [
    (float("nan"), "global_temperature must be finite"),
    (float("inf"), "global_temperature must be finite"),
    (-float("inf"), "global_temperature must be finite and >= 1e-06"),
])
def test_router_settings_reject_non_finite_temperature(value, message):
    with pytest.raises(ValueError, match=message):
        RouterSettings(global_temperature=value)


def test_sweep_runs_at_the_temperature_floor(tmp_path):
    code, out = _sweep(tmp_path, "--grid=1e-06")
    assert code == 0
    with open(out / "sweep_temp.csv", encoding="utf-8") as fh:
        assert {row["temperature"] for row in csv.DictReader(fh)} == {"1e-06"}
