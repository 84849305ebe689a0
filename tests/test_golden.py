"""Behaviour pin: every subcommand for every variant on a tiny config, seeds
0 and 1, compared with ``golden_tiny.json`` by exact float equality.

Refactors run against this file.  A change that moves these numbers on
purpose regenerates it and says in CHANGES.md what moved and why::

    PYTHONPATH=src python tests/test_golden.py

The pinned bits belong to one numpy, one set of numpy's SIMD loops and one
BLAS kernel, so the file also records all three under ``provenance``,
which the comparison skips, and a mismatch names the run's and the pin's.
Its pinned bits belong to the X86_V4 (AVX-512) loops, because ``np.exp``,
``np.log`` and ``np.log1p`` give other bits on the AVX2 path, so it is
marked ``blas_bitwise`` and not ``bitwise``.
"""
import csv
import ctypes
import json
import os
import tempfile

import numpy as np
import pytest

from vroute import cli

pytestmark = pytest.mark.blas_bitwise

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


def provenance() -> dict:
    """The numpy version, the SIMD targets numpy dispatches to (the
    ``NPY_DISABLE_CPU_FEATURES`` names; ``np.exp`` and ``np.log`` give other
    bits on the AVX2 path than on the AVX-512 one) and the OpenBLAS core
    (``OPENBLAS_CORETYPE``'s names) that this process computes with.  The
    core is "unknown" when numpy's BLAS does not export scipy-openblas's
    corename query."""
    from numpy._core import _multiarray_umath as umath
    dispatch = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__[t]]
    try:
        corename = ctypes.CDLL(umath.__file__).scipy_openblas_get_corename64_
    except (OSError, AttributeError):
        core = "unknown"
    else:
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode()
    return {"numpy": np.__version__, "numpy_cpu_dispatch": dispatch,
            "openblas_core": core}


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
    assert run_pin(str(tmp_path), seed) == golden[str(seed)], (
        f"run on {provenance()}, pinned on {golden['provenance']}")


def test_pin_records_its_provenance():
    with open(GOLDEN, encoding="utf-8") as fh:
        pinned = json.load(fh)["provenance"]
    run = provenance()
    assert set(pinned) == set(run) == {"numpy", "numpy_cpu_dispatch",
                                       "openblas_core"}
    assert all(isinstance(run[k], str) and run[k]
               for k in ("numpy", "openblas_core"))
    assert all(isinstance(t, str) for t in run["numpy_cpu_dispatch"])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        results = {str(s): run_pin(tmp, s) for s in SEEDS}
    results["provenance"] = provenance()
    with open(GOLDEN, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
        fh.write("\n")
