"""The shared prefix changes no bit.

Predictive passes, stage-2 steps, perturbed stability passes and sweep
passes start from a prefix: the blocks before the first one that differs
run once.  A predict's prefix also holds the first stochastic block's
expert outputs and router encoding.  Each test compares against the
full-forward loop, where every pass runs the whole model, bit for bit.
The stage-2 oracle takes a batch from the train-set prefix, so it assumes
that gemm gives a row the same bits in any row subset.
"""
from dataclasses import replace

import numpy as np
import pytest

from vroute import tensor as T
from vroute.data import SyntheticDomainSpec, generate_domain, split_dataset
from vroute.metrics import jaccard_rows
from vroute import model as M
from vroute import training as TR
from vroute.metrics import calibration_report
from vroute.model import (ModelConfig, MoEClassifier, Prefix,
                          attach_variational_routers, elbo_loss,
                          predict_with_uncertainty, shannon_entropy)
from vroute.rng import RngStream
from vroute.routers import (SIGNAL_NAMES, RouterBase, RouterSettings,
                            TempScaleRouter)
from vroute.stability import (PerturbationSpec, fixed_temperature_layer_sweep,
                              layerwise_stability, perturbation_noise)
from vroute.tensor import Tensor
from vroute.training import (TrainConfig, predictive_nll_acc,
                             stage1_train, stage2_train)

pytestmark = pytest.mark.bitwise

STOCHASTIC = ("temp_scale", "mc_dropout", "vglr_mf", "vglr_fc", "vtsr")
TRAINED = ("vglr_mf", "vglr_fc", "vtsr")


def _model(variant=None, layers=(1,)):
    cfg = ModelConfig(feature_dim=6, hidden_dim=8, num_blocks=3,
                      num_experts=4, top_k=2, num_classes=3, phi_hidden=4)
    model = MoEClassifier(cfg, RngStream(0).derive("model-init"))
    if variant is not None:
        attach_variational_routers(model, layers, variant, RngStream(1),
                                   RouterSettings(eval_samples=4))
    return model


def _splits(n_train):
    spec = SyntheticDomainSpec(num_classes=3, modes_per_class=2, feature_dim=6,
                               mean_scale=0.8, noise_scale=0.5, seed=4)
    return split_dataset(generate_domain(spec, n_train + 60), n_train, 30, 30)


@pytest.fixture
def full_forward(monkeypatch):
    """Turn off the stage-2 training prefix: every training step runs the
    whole model.  Only ``first_stochastic_block`` is patched, and predict
    and the sweep read ``stochastic_blocks()``, so their prefixes stay on
    (their validation predict included)."""
    def off():
        monkeypatch.setattr(MoEClassifier, "first_stochastic_block",
                            lambda self: 0)
    return off


def _assert_same_prediction(got, want):
    np.testing.assert_array_equal(got.probs, want.probs)
    np.testing.assert_array_equal(got.kl_per_token, want.kl_per_token)
    for key in SIGNAL_NAMES:
        if want.signals[key] is None:
            assert got.signals[key] is None
        else:
            np.testing.assert_array_equal(got.signals[key], want.signals[key])


def _stacked_mc_logit_var(runs, i):
    """Layer ``i``'s multi-pass logit variance as a stack of the passes'
    C-contiguous sampled logits, with the deviations squared by ``** 2``."""
    samples = np.stack([np.ascontiguousarray(r[i].logits_sampled[:, 0, :])
                        for r in runs], axis=1)
    dev = samples - samples.mean(axis=1, keepdims=True)
    return (dev ** 2).sum(axis=(1, 2)) / (samples.shape[1] - 1)


def _predict_full_forward(model, x, rng):
    """The marginalisation as S plain whole passes, with the predict's noise
    plan and no shared prefix, expert outputs, router encoding or logit
    buffer."""
    layers = model.stochastic_blocks()
    passes = max((model.blocks[i].moe.router.settings.eval_samples
                  for i in layers), default=1)
    plan = M.noise_plan(model, x, rng)
    layers = layers or range(len(model.blocks))
    probs, kl, runs = [], np.zeros(len(x)), []
    for s in range(passes):
        with T.no_grad():
            logits, records = model.forward(
                x, "eval", router_noise={i: v[s] for i, v in plan.items()})
            probs.append(T.softmax(logits).data)
        for r in records:
            if r.kl is not None:
                kl += r.kl.data
        runs.append(records)
    per_layer = []
    for i in layers:
        sig = dict.fromkeys(SIGNAL_NAMES)
        sig.update(runs[0][i].signals)
        sig["gate_entropy"] = shannon_entropy(
            sum(r[i].probs for r in runs) / passes)
        if runs[0][i].logits_sampled is not None and passes >= 2:
            sig["mc_logit_var"] = _stacked_mc_logit_var(runs, i)
        per_layer.append(sig)
    signals = {}
    for key in SIGNAL_NAMES:
        values = [sig[key] for sig in per_layer if sig[key] is not None]
        signals[key] = np.mean(values, axis=0) if values else None
    return M.Prediction(sum(probs) / passes, signals, kl / passes)


@pytest.mark.parametrize("variant, layers",
                         [(v, [1, 2]) for v in STOCHASTIC]
                         + [(v, [0]) for v in STOCHASTIC] + [(None, [])],
                         ids=[f"{v}-at1" for v in STOCHASTIC]
                         + [f"{v}-at0" for v in STOCHASTIC] + ["all-map"])
def test_predict_matches_full_forward(variant, layers):
    model = _model(variant, layers)
    assert model.first_stochastic_block() == (1 if layers[:1] == [1] else 0)
    x = _splits(40)["test"].features
    got = predict_with_uncertainty(model, x, rng=RngStream(3))
    _assert_same_prediction(got, _predict_full_forward(model, x, RngStream(3)))


@pytest.mark.parametrize("variant, key", [("vglr_mf", "inf_logit_var"),
                                          ("vglr_fc", "inf_logit_var"),
                                          ("vtsr", "inf_temp")])
def test_inferred_readout_is_read_from_the_first_pass(variant, key):
    # Block 2's input follows block 1's sampled routing, so its readout
    # changes from pass to pass; the predict reports pass 0's.
    model = _model(variant, layers=(1, 2))
    x = _splits(40)["test"].features
    plan = M.noise_plan(model, x, RngStream(3))
    readouts = []
    for s in (0, 1):
        with T.no_grad():
            _, records = model.forward(
                x, "eval", router_noise={i: v[s] for i, v in plan.items()})
        readouts.append([records[i].signals[key] for i in (1, 2)])
    np.testing.assert_array_equal(readouts[0][0], readouts[1][0])
    assert not np.array_equal(readouts[0][1], readouts[1][1])
    got = predict_with_uncertainty(model, x, rng=RngStream(3))
    np.testing.assert_array_equal(got.signals[key],
                                  np.mean(readouts[0], axis=0))


@pytest.mark.parametrize("variant", STOCHASTIC)
def test_predict_encodes_the_prefix_block_once(variant, monkeypatch):
    model = _model(variant, layers=(1, 2))
    routers = [blk.moe.router for blk in model.blocks]
    encodes = {i: _count_calls(monkeypatch, r, "encode", lambda *a: 0)
               for i, r in enumerate(routers)}
    routes = {i: _count_calls(monkeypatch, r, "route", lambda *a: 0)
              for i, r in enumerate(routers)}
    mixes = _count_calls(monkeypatch, T, "expert_mix",
                         lambda u, gates, w1, w2: id(w1))
    predict_with_uncertainty(model, _splits(40)["test"].features,
                             rng=RngStream(3))
    # Block 0 runs once, in the prefix.  Block 1 is encoded once and routed
    # and mixed from its stored expert outputs in each of the 4 passes;
    # block 2's route encodes in every pass.  Every route handed no
    # encoding calls ``encode``: MAP's and mc_dropout's is the base one,
    # which returns None, so a mc_dropout block 1 calls it again in each
    # pass.
    assert encodes[0] == {0: 1}
    assert encodes[1] == ({0: 5} if variant == "mc_dropout" else {0: 1})
    assert encodes[2] == {0: 4}
    assert [routes[i] for i in (1, 2)] == [{0: 4}, {0: 4}]
    assert [mixes[id(blk.moe.w1)] for blk in model.blocks] == [1, 4, 4]


def test_expert_outputs_are_untaped_only():
    model = _model("vtsr")
    x = _splits(40)["test"].features
    prefix = model.prefix(x, 1, experts=True)
    moe = model.blocks[1].moe
    assert prefix.experts.shape == (4, len(x), 8)
    gates = Tensor(np.full((len(x), 4), 0.25), requires_grad=True)
    with pytest.raises(T.NumericsError, match="no tape"):
        T.expert_mix(Tensor(prefix.h), gates, moe.w1, moe.w2,
                     outputs=prefix.experts)


@pytest.mark.parametrize("variant", TRAINED)
def test_stage2_step_matches_full_forward(variant):
    model = _model(variant)
    phi = [p for _, p in model.phi_param_items()]
    for _, p in model.param_items():
        p.requires_grad = any(p is q for q in phi)
    train = _splits(50)["train"]
    idx = RngStream(2).permutation(50)[:16]

    def step(prefix):
        for p in phi:
            p.grad = None
        logits, records = model.forward(train.features[idx], "train",
                                        rng=RngStream(5), prefix=prefix)
        loss = elbo_loss(logits, train.labels[idx], records, 0.1)
        loss.backward()
        return loss.data, [p.grad for p in phi], len(records)

    want = step(None)
    got = step(Prefix(1, model.prefix(train.features, 1).h[idx]))
    np.testing.assert_array_equal(got[0], want[0])
    for g, w in zip(got[1], want[1]):
        np.testing.assert_array_equal(g, w)
    assert got[2] == want[2] == 3


@pytest.mark.parametrize("variant", TRAINED)
def test_stage_with_one_row_last_batch_matches_full_forward(variant,
                                                            full_forward):
    splits = _splits(33)                      # batches of 16, 16 and 1 row
    cfg = TrainConfig(epochs_stage2=2, batch_size=16, learning_rate_stage2=1e-2)

    def run():
        model = _model(variant)
        log = stage2_train(model, splits["train"], splits["val"], cfg, seed=0)
        return log, [p.data for _, p in model.phi_param_items()]

    got_log, got_phi = run()
    full_forward()
    want_log, want_phi = run()
    assert got_log == want_log
    for g, w in zip(got_phi, want_phi):
        np.testing.assert_array_equal(g, w)


def _route_records(model, x, base, **kwargs):
    """The route records of a whole eval pass on the report's router
    stream."""
    with T.no_grad():
        return model.forward(x, "eval", rng=base.derive("route"), **kwargs)[1]


def _perturbed_records(model, x, base, layer, noise):
    """Route records of a whole-model pass whose block ``layer`` adds
    ``noise`` to its MoE layer's input before routing."""
    moe = model.blocks[layer].moe
    clean_forward = moe.forward
    moe.forward = lambda u, *args, **kwargs: clean_forward(
        u + Tensor(noise), *args, **kwargs)
    try:
        return _route_records(model, x, base)
    finally:
        del moe.forward


def _stability_full_forward(model, dataset, spec, seed):
    """(layer, gamma, Jaccards) cells with every perturbed pass run whole."""
    base = RngStream(seed)
    x = dataset.features
    block_inputs = []
    clean = _route_records(model, x, base, block_inputs=block_inputs)
    cells = []
    for layer, h in enumerate(block_inputs):
        norm = float(np.linalg.norm(h, axis=1).mean())
        for gi, gamma in enumerate(spec.gamma_levels):
            values = []
            for rep in range(spec.repeats):
                noise = perturbation_noise(h.shape, gamma, norm,
                                           base.derive("noise", layer, gi, rep))
                perturbed = _perturbed_records(model, x, base, layer, noise)
                values.append(jaccard_rows(clean[layer].selection,
                                           perturbed[layer].selection))
            cells.append((layer, gamma, np.concatenate(values)))
    return cells


@pytest.mark.parametrize("variant", (None,) + STOCHASTIC,
                         ids=("all-map",) + STOCHASTIC)
def test_stability_report_matches_full_forward(variant):
    model = _model(variant)
    dataset = _splits(40)["test"]
    spec = PerturbationSpec(gamma_levels=(0.05, 0.5), diagnostic_gamma=0.05,
                            repeats=2)
    cells = layerwise_stability(model, dataset, spec, seed=7)
    want = _stability_full_forward(model, dataset, spec, seed=7)
    assert len(cells) == len(want) == 6
    for cell, (layer, gamma, j) in zip(cells, want):
        assert (cell.layer, cell.gamma) == (layer, gamma)
        assert cell.mean_jaccard == float(j.mean())
        assert (cell.q10, cell.q50, cell.q90) == tuple(
            float(np.quantile(j, q)) for q in (0.10, 0.50, 0.90))


def _count_calls(monkeypatch, owner, name, key):
    """Wrap ``owner.name`` to count its calls in a dict keyed by
    ``key(*args)``; returns the dict."""
    counts: dict = {}
    inner = getattr(owner, name)

    def counting(*args, **kwargs):
        k = key(*args)
        counts[k] = counts.get(k, 0) + 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return counts


def test_perturbed_pass_stops_at_the_layer_it_reads(monkeypatch):
    model = _model("vtsr")
    routes = [_count_calls(monkeypatch, blk.moe.router, "route", lambda *a: 0)
              for blk in model.blocks]
    weights = [id(blk.moe.w1) for blk in model.blocks]
    mixes = _count_calls(monkeypatch, T, "expert_mix",
                         lambda u, gates, w1, w2: weights.index(id(w1)))
    spec = PerturbationSpec(gamma_levels=(0.05, 0.5), diagnostic_gamma=0.05,
                            repeats=2)
    layerwise_stability(model, _splits(40)["test"], spec, seed=7)
    # One clean pass, then each block only in the passes perturbed at it,
    # which only route it: the last block as the others.
    assert [r[0] for r in routes] == [1 + 2 * 2] * len(model.blocks)
    assert mixes == {0: 1, 1: 1, 2: 1}


@pytest.mark.parametrize("variant", STOCHASTIC)
def test_report_draws_each_layers_router_noise_once(variant, monkeypatch):
    model = _model(variant, layers=(0, 2))
    # Each variant overrides draw_noise, so the calls are counted per router.
    draws = [_count_calls(monkeypatch, blk.moe.router, "draw_noise",
                          lambda *a: 0) for blk in model.blocks]
    spec = PerturbationSpec(gamma_levels=(0.05, 0.5), diagnostic_gamma=0.05,
                            repeats=2)
    layerwise_stability(model, _splits(40)["test"], spec, seed=7)
    # Once, before the clean pass; the perturbed passes replay that draw.
    assert [draws[b].get(0) for b in model.stochastic_blocks()] == [1, 1]


@pytest.mark.parametrize("variant", STOCHASTIC)
def test_perturbed_passes_replay_the_clean_draw(variant, monkeypatch):
    model = _model(variant, layers=(0, 2))
    calls = []
    route = RouterBase.route

    def recording(router, u, mode, noise=None, *args):
        calls.append((router, noise))
        return route(router, u, mode, noise, *args)

    monkeypatch.setattr(RouterBase, "route", recording)
    spec = PerturbationSpec(gamma_levels=(0.05, 0.5), diagnostic_gamma=0.05,
                            repeats=2)
    layerwise_stability(model, _splits(40)["test"], spec, seed=7)
    # The clean pass and the 2 * 2 passes perturbed at a block route one
    # array there: the block's single draw.
    for b in model.stochastic_blocks():
        router = model.blocks[b].moe.router
        seen = [noise for r, noise in calls if r is router]
        assert len(seen) == 1 + 2 * 2
        assert isinstance(seen[0], np.ndarray)
        assert all(noise is seen[0] for noise in seen)


@pytest.mark.parametrize("variant", STOCHASTIC)
def test_stochastic_forward_without_noise_names_the_variant(variant):
    model = _model(variant)
    x = _splits(40)["test"].features
    for mode in ("train", "eval"):
        with pytest.raises(ValueError, match=f"^{variant} routing needs an "
                           "RngStream or pre-drawn noise$"):
            model.forward(x, mode)


@pytest.mark.parametrize("variant", STOCHASTIC)
def test_noise_plan_skips_map_layers(variant, monkeypatch):
    # Layers 0 and 2 are MAP: no plan entry and no per-row stream.
    model = _model(variant, layers=(1,))
    x = _splits(40)["test"].features
    rows = _count_calls(monkeypatch, RngStream, "derive_from_bytes",
                        lambda *a: 0)
    plan = M.noise_plan(model, x, RngStream(3))
    assert list(plan) == [1]
    assert plan[1].shape[:2] == (4, len(x))
    assert rows == {0: len(x)}


@pytest.mark.parametrize("rows", [0, 7])
@pytest.mark.parametrize("variant", STOCHASTIC)
def test_noise_plan_keeps_the_draw_dtype(variant, rows):
    # mc_dropout draws a boolean keep mask, the others float64 noise.
    model = _model(variant, layers=(1,))
    x = _splits(40)["test"].features[:rows]
    plan = M.noise_plan(model, x, RngStream(3))
    want = np.bool_ if variant == "mc_dropout" else np.float64
    assert plan[1].dtype == want
    assert plan[1].shape[:2] == (4, rows)


@pytest.mark.parametrize("variant", STOCHASTIC)
def test_predict_on_no_rows(variant):
    pred = predict_with_uncertainty(_model(variant), np.zeros((0, 6)),
                                    rng=RngStream(3))
    assert pred.probs.shape == (0, 3)


def _assert_same_records(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
            continue
        np.testing.assert_array_equal(g.selection, w.selection)
        np.testing.assert_array_equal(g.gate_weights.data, w.gate_weights.data)
        np.testing.assert_array_equal(g.probs, w.probs)


def _eval_pass(model, x, **kwargs):
    return model.forward(x, "eval", rng=RngStream(5), **kwargs)


@pytest.mark.parametrize("variant", (None,) + STOCHASTIC,
                         ids=("all-map",) + STOCHASTIC)
class TestForwardRouteOnly:
    @pytest.mark.parametrize("block", [0, 1, 2])
    def test_routes_its_first_layer_alone(self, variant, block, monkeypatch):
        # Block 0 from x, a later block from the whole pass's input to it:
        # that block's record of the whole pass, with no expert mix, no
        # head and no block input kept.
        model = _model(variant)
        x = _splits(40)["test"].features
        want_inputs = []
        _, want = _eval_pass(model, x, block_inputs=want_inputs)
        prefix = Prefix(block, want_inputs[block]) if block else None
        mixed = _count_calls(monkeypatch, T, "expert_mix",
                             lambda u, gates, w1, w2: id(w1))
        products = _count_calls(monkeypatch, T, "matmul", lambda a, b: id(b))
        block_inputs = []
        logits, record = _eval_pass(model, x, prefix=prefix, route_only=True,
                                    block_inputs=block_inputs)
        assert logits is None
        _assert_same_records([record], [want[block]])
        assert mixed == {}
        assert id(model.head) not in products
        assert block_inputs == []

    def test_held_noise_gives_the_drawn_record(self, variant):
        # Stability's perturbed passes replay one held draw of their layer.
        model = _model(variant)
        x = _splits(40)["test"].features
        block_inputs = []
        _, want = _eval_pass(model, x, block_inputs=block_inputs)
        held = {1: model.layer_noise(1, RngStream(5), len(x), "eval")}
        _, record = model.forward(x, "eval", prefix=Prefix(1, block_inputs[1]),
                                  route_only=True, router_noise=held)
        _assert_same_records([record], [want[1]])


class TestStage2ValPlan:
    def _run(self, monkeypatch, variant="vglr_mf", epochs=3):
        splits = _splits(40)
        model = _model(variant)
        plans = _count_calls(monkeypatch, M, "noise_plan",
                             lambda m, x, *a: len(x))
        # training binds the plan function by name; count its calls too.
        monkeypatch.setattr(TR, "noise_plan", M.noise_plan)
        prefixes = _count_calls(monkeypatch, MoEClassifier, "prefix",
                                lambda m, x, *a, **k: len(x))
        cfg = TrainConfig(epochs_stage2=epochs, early_stop_patience=epochs,
                          batch_size=16)
        log = stage2_train(model, splits["train"], splits["val"], cfg, seed=0)
        return log, plans, prefixes

    @pytest.mark.parametrize("variant", TRAINED)
    def test_val_plan_is_drawn_once_per_stage(self, variant, monkeypatch):
        log, plans, prefixes = self._run(monkeypatch, variant)
        assert len(log.epochs) == 3                 # one val predict each
        assert plans == {30: 1}                     # val rows only
        assert prefixes == {40: 1, 30: 3}           # train prefix, val predicts

    def test_stage1_runs_on_a_model_with_attached_routers(self):
        # Stage 1 trains every weight the val predict's prefix reads; the
        # plan it draws once reads none, so each epoch's val stats are those
        # of a plan-free predict under that epoch's weights.
        splits = _splits(40)
        model = _model("vglr_mf")
        log = stage1_train(model, splits["train"], splits["val"],
                           TrainConfig(epochs_stage1=1), seed=0)
        assert log.best_epoch == 0
        want = predictive_nll_acc(model, splits["val"],
                                  RngStream(0).derive("stage1").derive("val"))
        got = log.epochs[0]
        assert (got.val_nll, got.val_acc, got.val_kl) == want


@pytest.mark.parametrize("variant", STOCHASTIC)
def test_plan_outlives_a_dense_weight_change(variant):
    model = _model(variant, layers=(1, 2))
    x = _splits(40)["test"].features
    plan = M.noise_plan(model, x, RngStream(3))
    before = predict_with_uncertainty(model, x, rng=RngStream(3))
    model.blocks[0].dense.data = model.blocks[0].dense.data * 1.5
    got = predict_with_uncertainty(model, x, rng=RngStream(3), plan=plan)
    want = predict_with_uncertainty(model, x, rng=RngStream(3))
    _assert_same_prediction(got, want)
    assert not np.array_equal(got.probs, before.probs)


def _sweep_full_forward(model, dataset, t_grid, layers, seed):
    """The sweep with every pass run whole from the input."""
    rows, base = [], RngStream(seed)
    for layer in layers:
        blk = model.blocks[layer]
        original = blk.moe.router
        for t in t_grid:
            blk.moe.router = TempScaleRouter(
                original.w_r, original.top_k,
                replace(original.settings, global_temperature=t))
            with T.no_grad():
                logits, _ = model.forward(
                    dataset.features, "eval",
                    rng=base.derive("sweep", layer, f"{t!r}"))
            blk.moe.router = original
            rep = calibration_report(T.softmax(logits).data,
                                     dataset.labels)
            rows.append({"layer": layer, "temperature": t,
                         "accuracy": rep.accuracy, "ece": rep.ece})
    return rows


@pytest.mark.parametrize("variant", (None,) + STOCHASTIC,
                         ids=("all-map",) + STOCHASTIC)
def test_sweep_rows_match_full_forward(variant, monkeypatch):
    model = _model(variant)
    dataset = _splits(40)["test"]
    starts = _count_calls(monkeypatch, MoEClassifier, "prefix",
                          lambda m, x, block, *a: block)
    got = fixed_temperature_layer_sweep(model, dataset, (0.3, 2.0),
                                        [0, 1, 2], seed=5)
    # Each layer's passes start at it, or at the stochastic block 1.
    assert starts == ({0: 1, 1: 1, 2: 1} if variant is None
                      else {0: 1, 1: 2})
    assert got == _sweep_full_forward(model, dataset, (0.3, 2.0), [0, 1, 2],
                                      seed=5)
