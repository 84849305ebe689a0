"""Behaviour pin: every subcommand for every variant on a tiny config, seeds
0 and 1, compared with ``golden_tiny.json`` by exact float equality.

Refactors run against this file.  A change that moves these numbers on
purpose regenerates it and says in CHANGES.md what moved and why::

    PYTHONPATH=src python tests/test_golden.py
"""
import csv
import json
import os
import tempfile

import pytest

from vroute import cli

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_tiny.json")
SEEDS = (0, 1)
VARIANTS = ("map", "temp_scale", "mc_dropout", "vglr_mf", "vglr_fc", "vtsr")
CONFIG = {
    "variants": list(VARIANTS), "layers": [1],
    "model": {"feature_dim": 6, "hidden_dim": 8, "num_blocks": 2,
              "num_experts": 4, "num_classes": 3},
    "router": {"eval_samples": 4},
    "train": {"epochs_stage1": 3, "epochs_stage2": 4, "kl_weight": 10.0,
              "learning_rate_stage2": 1e-2, "early_stop_patience": 4},
    "data": {"n_train": 120, "n_val": 40, "n_test": 40, "n_ood": 40},
}


def _rows(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def run_pin(work_dir: str, seed: int) -> dict:
    """Run train, then eval, ood, stability and sweep-temp per variant; return
    the pinned numbers keyed by variant."""
    cfg_path = os.path.join(work_dir, "config.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(CONFIG, fh)
    out = os.path.join(work_dir, f"seed{seed}")

    def vroute(*argv):
        args = list(argv) + ["--config", cfg_path, "--out", out,
                             "--seed", str(seed)]
        assert cli.main(args) == 0, args

    vroute("train")
    pinned = {}
    for v in VARIANTS:
        for command in ("eval", "ood", "stability", "sweep-temp"):
            vroute(command, "--variant", v)
        (ev,) = _rows(os.path.join(out, f"eval_{v}.csv"))
        pinned[v] = {
            "eval": {k: float(ev[k]) for k in ("accuracy", "nll", "ece")},
            "ood_auroc": {f"{r['signal']}.{r['domain']}": float(r["auroc"])
                          for r in _rows(os.path.join(out, f"ood_{v}.csv"))},
            "stability": [[int(r["layer"])] + [float(r[k]) for k in
                                               ("gamma", "mean_jaccard", "q10",
                                                "q50", "q90")]
                          for r in _rows(os.path.join(out, f"stability_{v}.csv"))],
            "sweep_temp": [[int(r["layer"])] + [float(r[k]) for k in
                                                ("temperature", "accuracy", "ece")]
                           for r in _rows(os.path.join(out, "sweep_temp.csv"))],
        }
    return pinned


@pytest.mark.parametrize("seed", SEEDS)
def test_outputs_match_golden(tmp_path, seed):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert run_pin(str(tmp_path), seed) == golden[str(seed)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        results = {str(s): run_pin(tmp, s) for s in SEEDS}
    with open(GOLDEN, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
        fh.write("\n")
