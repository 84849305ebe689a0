import collections
import math
from dataclasses import replace

import numpy as np
import pytest

from vroute import tensor as T
from vroute import training
from vroute.data import Dataset, split_dataset
from vroute.model import (ModelConfig, MoEClassifier, MoELayer,
                          attach_variational_routers, elbo_loss, kl_penalty,
                          predict_with_uncertainty)
from vroute.optim import Adam
from vroute.rng import RngStream
from vroute.routers import MapRouter, RouterSettings, gumbel_top_k
from vroute.tensor import Tensor
from vroute.training import (TrainConfig, predictive_nll_acc, stage1_train,
                             stage2_train)

from conftest import assert_grad_close, central_difference


def tiny_model(num_blocks=2, dim=8, experts=4, classes=3, feature_dim=5,
               seed=0, top_k=2):
    cfg = ModelConfig(feature_dim=feature_dim, hidden_dim=dim,
                      num_blocks=num_blocks, num_experts=experts, top_k=top_k,
                      num_classes=classes, phi_hidden=4)
    return MoEClassifier(cfg, RngStream(seed).derive("model-init"))


def expert_out(layer, i, u):
    return np.maximum(u @ layer.w1.data[i], 0.0) @ layer.w2.data[i]


def separable_splits(n=420, seed=3):
    """Two classes, one Gaussian each, centred at 4 on the first or the
    second axis."""
    means = np.array([[4.0, 0, 0, 0, 0], [0, 4.0, 0, 0, 0]])
    stream = RngStream(seed)
    labels = stream.derive("labels").integers(0, 2, (n,))
    feats = means[labels] + 0.4 * stream.derive("noise").normal((n, 5))
    return split_dataset(Dataset(feats, labels, 2), n - 120, 60, 60)


class TestMoELayerForward:
    def test_all_experts_uniform_gates_give_mean(self):
        model = tiny_model(num_blocks=1, experts=4)
        model.blocks[0].moe.router.top_k = 4
        layer = model.blocks[0].moe
        u = Tensor(np.zeros((3, 8)))       # zero input -> uniform router probs
        out, rec = layer.forward(u, "eval")
        np.testing.assert_allclose(rec.gate_weights.data, 0.25, atol=1e-12)
        mean = np.mean([expert_out(layer, i, u.data) for i in range(4)], axis=0)
        np.testing.assert_allclose(out.data, mean, atol=1e-12)

    def test_single_expert_identity(self, np_rng):
        # A model keeps top_k below num_experts; a router allows k = N.
        stream = RngStream(0)
        layer = MoELayer(Tensor(stream.normal((1, 8, 8))),
                         Tensor(stream.normal((1, 8, 8))),
                         MapRouter(Tensor(stream.normal((8, 1))), 1,
                                   RouterSettings()))
        u = Tensor(np_rng.normal(size=(4, 8)))
        out, _ = layer.forward(u, "eval")
        np.testing.assert_allclose(out.data, expert_out(layer, 0, u.data),
                                   atol=1e-12)

    def test_hand_assembled_mixture(self, np_rng):
        model = tiny_model(num_blocks=1, experts=4)
        layer = model.blocks[0].moe
        u = np_rng.normal(size=(2, 8))
        out, rec = layer.forward(Tensor(u), "eval")
        expected = np.zeros((2, 8))
        for b in range(2):
            for i in np.nonzero(rec.selection[b])[0]:
                expected[b] += rec.gate_weights.data[b, i] * expert_out(layer, i, u[b])
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_mixed_output_is_one_expert_mix_node(self, np_rng):
        model = tiny_model(num_blocks=1, experts=4)
        layer = model.blocks[0].moe
        u = Tensor(np_rng.normal(size=(3, 8)), requires_grad=True)
        out, rec = layer.forward(u, "train")
        assert out._parents == (u, rec.gate_weights, layer.w1, layer.w2)
        assert layer.w1.shape == (4, 8, 8) and layer.w2.shape == (4, 8, 8)

    def test_output_finite_for_finite_inputs(self, np_rng):
        model = tiny_model()
        x = np_rng.uniform(-50, 50, size=(6, 5))
        logits, _ = model.forward(x, "eval")
        assert np.isfinite(logits.data).all()

    @pytest.mark.parametrize("route_only", [False, True])
    def test_unknown_mode_is_rejected(self, route_only):
        with pytest.raises(ValueError, match="^mode must be 'train' or "
                           "'eval', got 'predict'$"):
            tiny_model().forward(np.zeros((2, 5)), "predict",
                                 route_only=route_only)


class TestElboLoss:
    def test_zero_weight_equals_plain_cross_entropy(self, np_rng):
        model = tiny_model()
        attach_variational_routers(model, [0], "vglr_mf", RngStream(1),
                                   RouterSettings())
        x = np_rng.normal(size=(6, 5))
        y = np_rng.integers(0, 3, 6)
        logits, recs = model.forward(x, "train", rng=RngStream(2))
        loss = elbo_loss(logits, y, recs, 0.0)
        assert loss.item() == T.cross_entropy(logits, y).item()

    def test_deterministic_layers_contribute_no_kl(self, np_rng):
        model = tiny_model()
        x = np_rng.normal(size=(4, 5))
        _, recs = model.forward(x, "train", rng=RngStream(0))
        assert kl_penalty(recs) is None

    def test_decomposition_matches_hand_assembly(self, np_rng):
        model = tiny_model(num_blocks=1, experts=3)
        attach_variational_routers(model, [0], "vglr_fc", RngStream(5),
                                   RouterSettings())
        x = np_rng.normal(size=(2, 5))
        y = np.array([0, 2])
        beta = 0.37
        logits, recs = model.forward(x, "train", rng=RngStream(9))
        loss = elbo_loss(logits, y, recs, beta)
        ce = T.cross_entropy(logits, y).item()
        kl = float(np.mean(recs[0].kl.data))
        assert loss.item() == pytest.approx(ce + beta * kl, abs=1e-12)


class TestStage1:
    def test_separable_task_reaches_target_accuracy(self):
        splits = separable_splits()
        # logistic-regression-style linear baseline sanity oracle
        x, y = splits["train"].features, splits["train"].labels
        w, *_ = np.linalg.lstsq(np.c_[x, np.ones(len(x))],
                                np.eye(2)[y], rcond=None)
        base_acc = ((np.c_[x, np.ones(len(x))] @ w).argmax(1) == y).mean()
        assert base_acc >= 0.95

        model = tiny_model(classes=2)
        cfg = TrainConfig(epochs_stage1=12, batch_size=32)
        stage1_train(model, splits["train"], splits["val"], cfg, seed=0)
        _, acc, _ = predictive_nll_acc(model, splits["train"], RngStream(1))
        assert acc >= 0.95

    def test_zero_epochs_leaves_model_bitwise_unchanged(self):
        splits = separable_splits()
        model = tiny_model(classes=2)
        before = {n: p.data.copy() for n, p in model.param_items()}
        cfg = TrainConfig(epochs_stage1=0)
        log = stage1_train(model, splits["train"], splits["val"], cfg, seed=0)
        assert log.epochs == []
        for n, p in model.param_items():
            np.testing.assert_array_equal(p.data, before[n])

    def test_fixed_seed_reproduces_loss_curve(self):
        splits = separable_splits()
        cfg = TrainConfig(epochs_stage1=4, batch_size=32)
        curves = []
        for _ in range(2):
            model = tiny_model(classes=2)
            log = stage1_train(model, splits["train"], splits["val"], cfg,
                               seed=7)
            curves.append([(e.train_loss, e.val_nll) for e in log.epochs])
        assert curves[0] == curves[1]

    def test_logs_zero_kl_and_selects_best_val_nll(self):
        splits = separable_splits()
        model = tiny_model(classes=2)
        cfg = TrainConfig(epochs_stage1=6, batch_size=32,
                          early_stop_patience=6)
        log = stage1_train(model, splits["train"], splits["val"], cfg, seed=0)
        assert [e.val_kl for e in log.epochs] == [0.0] * 6
        nll = [e.val_nll for e in log.epochs]
        assert log.best_epoch == int(np.argmin(nll))
        assert log.best_val_objective == min(nll)

    def test_stops_after_patience_epochs_without_improvement(self,
                                                             monkeypatch):
        # A scripted validation NLL: the best is epoch 2, the next three do
        # not improve on it, and epoch 6 would, if the stage ran that far.
        script = [0.9, 0.7, 0.5, 0.6, 0.5, 0.8, 0.3, 0.2]
        snapshots = []

        def scripted(model, dataset, rng, plan):
            snapshots.append({n: p.data.copy()
                              for n, p in model.param_items()})
            return script[len(snapshots) - 1], 0.5, 0.0

        monkeypatch.setattr(training, "predictive_nll_acc", scripted)
        splits = separable_splits(n=200)
        model = tiny_model(classes=2)
        cfg = TrainConfig(epochs_stage1=len(script), batch_size=32,
                          early_stop_patience=3)
        log = stage1_train(model, splits["train"], splits["val"], cfg, seed=0)
        assert [e.val_nll for e in log.epochs] == script[:6]
        assert log.best_epoch == 2 and log.best_val_objective == 0.5
        for n, p in model.param_items():
            np.testing.assert_array_equal(p.data, snapshots[2][n])
        # Training moved the weights after the restored epoch.
        assert any(not np.array_equal(snapshots[5][n], snapshots[2][n])
                   for n in snapshots[2])


class TestAttach:
    def test_empty_index_set_is_identity(self):
        model = tiny_model()
        before = {n: p.data.copy() for n, p in model.param_items()}
        attach_variational_routers(model, [], "vglr_mf", RngStream(0),
                                   RouterSettings())
        assert [n for n, _ in model.param_items()] == list(before)
        for n, p in model.param_items():
            np.testing.assert_array_equal(p.data, before[n])
        assert model.stochastic_blocks() == []

    def test_all_blocks_report_signal_slots(self, np_rng):
        model = tiny_model()
        attach_variational_routers(model, [0, 1], "vglr_fc", RngStream(0),
                                   RouterSettings())
        x = np_rng.normal(size=(3, 5))
        _, recs = model.forward(x, "eval", rng=RngStream(1))
        for rec in recs:
            assert rec.signals["inf_logit_var"] is not None

    def test_reattachment_idempotent_in_parameter_count(self):
        model = tiny_model()
        attach_variational_routers(model, [0, 1], "vtsr", RngStream(0),
                                   RouterSettings())
        count1 = sum(p.data.size for _, p in model.param_items())
        attach_variational_routers(model, [0, 1], "vtsr", RngStream(5),
                                   RouterSettings())
        count2 = sum(p.data.size for _, p in model.param_items())
        assert count1 == count2
        assert model.stochastic_blocks() == [0, 1]

    def test_invalid_index_rejected(self):
        model = tiny_model()
        with pytest.raises(ValueError):
            attach_variational_routers(model, [9], "vtsr", RngStream(0),
                                       RouterSettings())

    def test_wrapped_projection_is_shared(self):
        model = tiny_model()
        w_r = model.blocks[0].moe.router.w_r
        attach_variational_routers(model, [0], "vglr_mf", RngStream(0),
                                   RouterSettings())
        assert model.blocks[0].moe.router.w_r is w_r


class TestStage2:
    def _trained(self, variant, beta=0.1, epochs=4, inflate=0.0,
                 lr2=1e-4, patience=3):
        splits = separable_splits()
        model = tiny_model(classes=2)
        cfg = TrainConfig(epochs_stage1=8, epochs_stage2=epochs,
                          batch_size=32, kl_weight=beta,
                          learning_rate_stage2=lr2,
                          early_stop_patience=patience)
        stage1_train(model, splits["train"], splits["val"], cfg, seed=0)
        attach_variational_routers(model, [0, 1], variant, RngStream(2),
                                   RouterSettings())
        if inflate:
            stream = RngStream(99)
            for _, p in model.phi_param_items():
                p.data = p.data + inflate * stream.normal(p.data.shape)
        return model, splits, cfg

    def test_frozen_parameters_unchanged(self):
        model, splits, cfg = self._trained("vglr_fc")
        before = {n: p.data.copy() for n, p in model.param_items()
                  if ".router.phi." not in n}
        stage2_train(model, splits["train"], splits["val"], cfg, seed=0)
        for name, p in model.param_items():
            if name in before:
                np.testing.assert_array_equal(p.data, before[name])

    def test_phi_parameters_do_change(self):
        model, splits, cfg = self._trained("vglr_mf")
        before = {n: p.data.copy() for n, p in model.phi_param_items()}
        stage2_train(model, splits["train"], splits["val"], cfg, seed=0)
        changed = any(not np.array_equal(p.data, before[n])
                      for n, p in model.phi_param_items())
        assert changed

    def test_large_kl_weight_collapses_posterior_to_prior(self):
        model, splits, cfg = self._trained("vglr_mf", beta=1e3, epochs=12,
                                           inflate=0.3, lr2=1e-2, patience=12)
        x = splits["val"].features
        _, recs = model.forward(x, "train", rng=RngStream(1))
        assert np.mean(recs[0].kl.data) > 0.01   # inflated start
        stage2_train(model, splits["train"], splits["val"], cfg, seed=0)
        _, recs = model.forward(x, "train", rng=RngStream(1))
        for idx in (0, 1):
            assert np.mean(recs[idx].kl.data) < 0.01

    def _restored_val_nll(self, model, splits, cfg):
        stream = RngStream(0).derive("stage2").derive("val")
        return predictive_nll_acc(model, splits["val"], stream)[0]

    def test_best_epoch_minimises_val_objective(self):
        model, splits, cfg = self._trained("vglr_mf", beta=1e3, epochs=12,
                                           inflate=0.3, lr2=1e-2, patience=12)
        log = stage2_train(model, splits["train"], splits["val"], cfg, seed=0)
        objective = [e.val_nll + cfg.kl_weight * e.val_kl for e in log.epochs]
        assert all(e.val_kl > 0.0 for e in log.epochs)
        assert log.best_epoch == int(np.argmin(objective))
        assert log.best_val_objective == pytest.approx(min(objective),
                                                       rel=1e-12)
        assert (self._restored_val_nll(model, splits, cfg)
                == log.epochs[log.best_epoch].val_nll)

    def test_zero_kl_weight_sharpens_vtsr_temperature(self):
        model, splits, cfg = self._trained("vtsr", beta=0.0, epochs=10)
        x = splits["val"].features

        def mean_temp():
            with T.no_grad():
                _, recs = model.forward(x, "eval", rng=RngStream(3))
            return float(np.mean([r.signals["inf_temp"].mean() for r in recs
                                  if "inf_temp" in r.signals]))

        before = mean_temp()
        stage2_train(model, splits["train"], splits["val"], cfg, seed=0)
        assert mean_temp() < before


class TestPredict:
    def test_map_model_has_null_variational_signals(self, np_rng):
        model = tiny_model()
        pred = predict_with_uncertainty(model, np_rng.normal(size=(4, 5)),
                                        rng=RngStream(0))
        assert pred.signals["inf_logit_var"] is None
        assert pred.signals["inf_temp"] is None
        assert pred.signals["mc_logit_var"] is None
        assert pred.signals["gate_entropy"] is not None
        np.testing.assert_allclose(pred.probs.sum(axis=1), 1.0, atol=1e-12)

    def test_kl_per_token_is_the_summed_layer_regulariser(self, np_rng):
        x = np_rng.normal(size=(6, 5))
        model = tiny_model()
        pred = predict_with_uncertainty(model, x, rng=RngStream(0))
        np.testing.assert_array_equal(pred.kl_per_token, np.zeros(6))
        # vtsr on the first block only: its -log T is pass-independent.
        attach_variational_routers(model, [0], "vtsr", RngStream(1),
                                   RouterSettings(eval_samples=4))
        pred = predict_with_uncertainty(model, x, rng=RngStream(0))
        np.testing.assert_allclose(
            pred.kl_per_token, -np.log(pred.signals["inf_temp"]), rtol=1e-12)

    @pytest.mark.parametrize("variant", ["temp_scale", "mc_dropout",
                                         "vglr_mf", "vglr_fc", "vtsr"])
    def test_one_pass_reports_no_mc_logit_var(self, np_rng, variant):
        # A variance across passes needs two of them; with one it is not
        # measured, whatever the variant samples inside its pass.
        model = tiny_model()
        attach_variational_routers(model, [0, 1], variant, RngStream(1),
                                   RouterSettings(eval_samples=1))
        pred = predict_with_uncertainty(model, np_rng.normal(size=(4, 5)),
                                        rng=RngStream(0))
        assert pred.signals["mc_logit_var"] is None
        assert pred.signals["gate_entropy"] is not None

    def test_duplicate_input_in_batch_routes_identically(self, np_rng):
        model = tiny_model()
        attach_variational_routers(model, [0, 1], "vglr_fc", RngStream(1),
                                   RouterSettings(eval_samples=5))
        row = np_rng.normal(size=5)
        x = np.vstack([row, np_rng.normal(size=5), row])
        pred = predict_with_uncertainty(model, x, rng=RngStream(2))
        np.testing.assert_array_equal(pred.probs[0], pred.probs[2])
        np.testing.assert_array_equal(pred.signals["mc_logit_var"][0],
                                      pred.signals["mc_logit_var"][2])

    def test_more_samples_reduce_stream_variance(self, np_rng):
        model, splits, cfg = TestStage2()._trained("vglr_fc", beta=0.01,
                                                   epochs=2, inflate=0.2)
        x = splits["val"].features[:16]

        def probs(samples, seed):
            # The pass count is the routers' eval_samples.
            for blk in model.blocks:
                router = blk.moe.router
                router.settings = replace(router.settings, eval_samples=samples)
            return predict_with_uncertainty(model, x, rng=RngStream(seed)).probs

        def spread(samples):
            runs = [probs(samples, 1000 + t) for t in range(20)]
            return float(np.std(np.stack(runs), axis=0).sum())

        s1, s35 = spread(1), spread(35)
        assert s35 < s1
        assert not np.array_equal(probs(1, 0), probs(35, 0))


class TestCollapsedScaleLimits:
    class _CollapsedPhi:
        full_cov = False

        def param_items(self):
            return []

        def posterior(self, u):
            b, n = u.shape[0], 4
            return Tensor(np.zeros((b, n))), Tensor(np.full((b, n), 1e-8))

    class _CollapsedTemp:
        def param_items(self):
            return []

        def temperature(self, u):
            return Tensor(np.full((u.shape[0], 1), 1e-4))

    def test_vglr_collapsed_matches_map_probabilities(self, np_rng):
        splits = separable_splits()
        model = tiny_model(classes=2)
        cfg = TrainConfig(epochs_stage1=6, batch_size=32)
        stage1_train(model, splits["train"], splits["val"], cfg, seed=0)
        x = splits["test"].features
        with T.no_grad():
            base_logits, base_recs = model.forward(x, "eval")
        attach_variational_routers(model, [0, 1], "vglr_mf", RngStream(4),
                                   RouterSettings())
        for idx in (0, 1):
            model.blocks[idx].moe.router.phi = self._CollapsedPhi()
        with T.no_grad():
            logits, recs = model.forward(x, "eval", rng=RngStream(7))
        for idx in (0, 1):
            np.testing.assert_array_equal(recs[idx].selection,
                                          base_recs[idx].selection)
        np.testing.assert_allclose(logits.data, base_logits.data, atol=1e-5)

    def test_vtsr_collapsed_matches_map_selection(self, np_rng):
        splits = separable_splits()
        model = tiny_model(classes=2)
        cfg = TrainConfig(epochs_stage1=6, batch_size=32)
        stage1_train(model, splits["train"], splits["val"], cfg, seed=0)
        x = splits["test"].features
        with T.no_grad():
            _, base_recs = model.forward(x, "eval")
        attach_variational_routers(model, [0], "vtsr", RngStream(4),
                                   RouterSettings())
        model.blocks[0].moe.router.temperature_net = self._CollapsedTemp()
        with T.no_grad():
            _, recs = model.forward(x, "eval", rng=RngStream(8))
        np.testing.assert_array_equal(recs[0].selection, base_recs[0].selection)


class TestElboGradients:
    """Inference-net gradients against central finite differences."""

    X = RngStream(3).normal((4, 4))
    Y = np.array([0, 1, 2, 1])

    def _model(self, variant):
        cfg = ModelConfig(feature_dim=4, hidden_dim=8, num_blocks=1,
                          num_experts=3, top_k=2, num_classes=3, phi_hidden=4)
        model = MoEClassifier(cfg, RngStream(1).derive("model-init"))
        attach_variational_routers(model, [0], variant, RngStream(2),
                                   RouterSettings())
        return model

    def _check(self, model, loss_fn):
        loss = loss_fn()
        loss.backward()
        for name, p in model.phi_param_items():
            assert p.grad is not None, name
            fd = central_difference(lambda: loss_fn().item(), p)
            assert_grad_close(p.grad, fd)

    def _check_forward(self, variant):
        model = self._model(variant)

        def loss_fn():
            logits, recs = model.forward(self.X, "train", rng=RngStream(77))
            return elbo_loss(logits, self.Y, recs, 0.05)

        self._check(model, loss_fn)

    def test_vglr_mf(self):
        self._check_forward("vglr_mf")

    def test_vglr_fc(self):
        self._check_forward("vglr_fc")

    def test_vtsr_soft_path(self):
        # vtsr trains through straight-through gates, whose forward value is
        # the hard renormalised set.  The relaxed path that carries their
        # gradient is assembled here with the relaxed weights as the gates,
        # so the whole loss is differentiable in the temperature net.
        model = self._model("vtsr")
        blk = model.blocks[0]
        router = blk.moe.router
        uniforms = RngStream(77).uniform((4, 3))

        def loss_fn():
            u = T.relu(T.matmul(T.matmul(Tensor(self.X), model.input_proj),
                                blk.dense))
            temp = router.temperature_net.temperature(u)
            scaled = Tensor(u.data @ router.w_r.data) / temp
            _, relaxed = gumbel_top_k(scaled, 2, uniforms)
            out = T.expert_mix(u, relaxed, blk.moe.w1, blk.moe.w2)
            reg = (-T.log(temp).reshape((4,))).mean()
            return (T.cross_entropy(T.matmul(out, model.head), self.Y)
                    + 0.05 * reg)

        self._check(model, loss_fn)


class TestFiniteGuardPin:
    """The finite guard's calls in one training step, by op label.  Every
    check goes through ``tensor._check_finite``, the hook the benchmark
    tracer counts, so a dropped, added or moved check changes these."""

    COUNTS = {
        ("map", 1): {"backward": 29, "cross_entropy": 1, "div": 2,
                     "expert_mix": 2, "matmul": 6, "mul": 2, "sum": 2,
                     "tensor construction": 3},
        ("temp_scale", 1): {"backward": 23, "cross_entropy": 1, "div": 1,
                            "expert_mix": 2, "matmul": 5, "mul": 1, "sum": 1,
                            "tensor construction": 4},
        # The sampled-logit family renormalises its mean softmax on the tape
        # (one more mul, sum and div than temp_scale's array gates).
        ("mc_dropout", 1): {"backward": 23, "cross_entropy": 1, "div": 2,
                            "expert_mix": 2, "matmul": 5, "mul": 2, "sum": 2,
                            "tensor construction": 4},
        ("vglr_mf", 1): {"add": 4, "backward": 48, "cross_entropy": 1,
                         "div": 3, "exp": 1, "expert_mix": 2, "log": 1,
                         "matmul": 8, "mean": 2, "mul": 8, "sqrt": 1,
                         "sub": 2, "sum": 3, "tensor construction": 9},
        ("vglr_fc", 1): {"add": 5, "backward": 54, "cross_entropy": 1,
                         "div": 3, "exp": 1, "expert_mix": 2, "log": 1,
                         "matmul": 8, "mean": 2, "mul": 7, "spread": 1,
                         "sqrt": 1, "sub": 2, "sum": 5,
                         "tensor construction": 8},
        ("vtsr", 1): {"add": 6, "backward": 44, "cross_entropy": 1, "div": 3,
                      "expert_mix": 2, "log": 1, "matmul": 7, "mean": 2,
                      "mul": 3, "softplus": 1, "sqrt": 1, "sub": 1, "sum": 1,
                      "tensor construction": 9},
        ("vglr_mf", 2): {"add": 5, "backward": 35, "cross_entropy": 1,
                         "div": 3, "exp": 1, "expert_mix": 2, "log": 1,
                         "matmul": 8, "mean": 2, "mul": 9, "sqrt": 1,
                         "sub": 2, "sum": 3, "tensor construction": 10},
        ("vglr_fc", 2): {"add": 6, "backward": 45, "cross_entropy": 1,
                         "div": 3, "exp": 1, "expert_mix": 2, "log": 1,
                         "matmul": 8, "mean": 2, "mul": 8, "spread": 1,
                         "sqrt": 1, "sub": 2, "sum": 5,
                         "tensor construction": 9},
        ("vtsr", 2): {"add": 7, "backward": 25, "cross_entropy": 1, "div": 3,
                      "expert_mix": 2, "log": 1, "matmul": 7, "mean": 2,
                      "mul": 4, "softplus": 1, "sqrt": 1, "sub": 1, "sum": 1,
                      "tensor construction": 10},
    }

    @pytest.mark.parametrize("variant, stage", list(COUNTS),
                             ids=[f"{v}-stage{s}" for v, s in COUNTS])
    def test_checks_per_training_step(self, variant, stage, monkeypatch):
        model = tiny_model()
        if variant != "map":
            attach_variational_routers(model, [1], variant, RngStream(1),
                                       RouterSettings(eval_samples=3))
        params = model.param_items()
        if stage == 2:
            params = model.phi_param_items()
            names = {n for n, _ in params}
            for name, p in model.param_items():
                if name not in names:
                    p.requires_grad = False
        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(6, 5)), rng.integers(0, 3, 6)
        opt = Adam(params, 1e-3)
        calls = collections.Counter()
        check = T._check_finite

        def counted(arr, op):
            calls[op] += 1
            check(arr, op)

        monkeypatch.setattr(T, "_check_finite", counted)
        logits, records = model.forward(x, "train", rng=RngStream(2))
        loss = elbo_loss(logits, y, records, 0.1 if stage == 2 else 0.0)
        opt.zero_grad()
        loss.backward()
        opt.step()
        assert dict(calls) == self.COUNTS[variant, stage]
