import itertools

import numpy as np
import pytest

from vroute.data import SyntheticDomainSpec, generate_domain, split_dataset
from vroute.model import ModelConfig, MoEClassifier, attach_variational_routers
from vroute.rng import RngStream
from vroute.routers import RouterSettings
from vroute.stability import (PerturbationSpec, StabilityCell,
                              fixed_temperature_layer_sweep,
                              layerwise_stability, perturbation_noise,
                              sensitivity_ranking)
from vroute.tensor import no_grad
from vroute.training import TrainConfig, predictive_nll_acc, stage1_train


def expected_random_jaccard(n: int, k: int) -> float:
    """Mean Jaccard of two independent uniform k-subsets of n, by enumeration."""
    subsets = list(itertools.combinations(range(n), k))
    total = 0.0
    for a in subsets:
        sa = set(a)
        for b in subsets:
            sb = set(b)
            total += len(sa & sb) / len(sa | sb)
    return total / len(subsets) ** 2


def small_trained_model(seed=0, epochs=6):
    spec = SyntheticDomainSpec(num_classes=3, modes_per_class=2,
                               feature_dim=8, mean_scale=0.5, noise_scale=0.5,
                               seed=seed + 50)
    splits = split_dataset(generate_domain(spec, 700), 500, 100, 100)
    cfg = ModelConfig(feature_dim=8, hidden_dim=16, num_blocks=3,
                      num_experts=8, top_k=2, num_classes=3, phi_hidden=4)
    model = MoEClassifier(cfg, RngStream(seed).derive("model-init"))
    tc = TrainConfig(epochs_stage1=epochs, batch_size=50)
    stage1_train(model, splits["train"], splits["val"], tc, seed=seed)
    return model, splits


class TestPerturbInput:
    def test_tiny_gamma_keeps_selection(self):
        model, splits = small_trained_model()
        spec = PerturbationSpec(gamma_levels=(1e-12,), diagnostic_gamma=1e-12,
                                repeats=1)
        for cell in layerwise_stability(model, splits["test"], spec, seed=0):
            assert cell.mean_jaccard == 1.0

    def test_moment_oracle(self):
        rng = RngStream(5)
        out = perturbation_noise((100_000, 12), gamma=0.3, mean_norm=2.0,
                                 rng=rng)
        sq = (out ** 2).sum(axis=1).mean()
        expected = 12 * (0.3 * 2.0) ** 2
        assert abs(sq - expected) / expected < 0.02

    def test_determinism_per_stream(self):
        a = perturbation_noise((4, 3), 0.1, 1.0, RngStream(7, 3))
        b = perturbation_noise((4, 3), 0.1, 1.0, RngStream(7, 3))
        np.testing.assert_array_equal(a, b)

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(ValueError):
            perturbation_noise((3,), 0.0, 1.0, RngStream(0))


class TestLayerwiseStability:
    def test_huge_gamma_hits_random_selection_floor(self):
        # Under overwhelming isotropic noise the selected set is uniform only
        # when the router columns are exchangeable, so the floor is pinned on
        # freshly initialised routers, aggregated over layers and seeds.
        spec_d = SyntheticDomainSpec(num_classes=3, modes_per_class=2,
                                     feature_dim=8, mean_scale=0.5,
                                     noise_scale=0.5, seed=53)
        ds = generate_domain(spec_d, 300)
        cfg = ModelConfig(feature_dim=8, hidden_dim=32, num_blocks=3,
                          num_experts=8, top_k=2, num_classes=3)
        values = []
        for seed in range(3):
            model = MoEClassifier(cfg, RngStream(seed).derive("model-init"))
            pspec = PerturbationSpec(gamma_levels=(1e3,), diagnostic_gamma=1e3,
                                     repeats=4)
            values.extend(c.mean_jaccard
                          for c in layerwise_stability(model, ds, pspec, seed=7))
        floor = expected_random_jaccard(8, 2)
        assert abs(np.mean(values) - floor) < 0.02
        assert max(abs(v - floor) for v in values) < 0.06

    def test_cell_count_is_layers_times_gammas(self):
        model, splits = small_trained_model()
        spec = PerturbationSpec(gamma_levels=(0.01, 0.05, 1.0),
                                diagnostic_gamma=0.01, repeats=1)
        cells = layerwise_stability(model, splits["test"], spec, seed=0)
        assert [(c.layer, c.gamma) for c in cells] == list(
            itertools.product(range(len(model.blocks)), spec.gamma_levels))

    def test_clean_vs_clean_is_exactly_one_for_stochastic_routers(self):
        from vroute.metrics import jaccard_rows
        model, splits = small_trained_model()
        attach_variational_routers(model, [0, 1, 2], "vtsr", RngStream(3),
                                   RouterSettings())
        x, base = splits["test"].features, RngStream(11)
        with no_grad():
            _, rec_a = model.forward(x, "eval", rng=base.derive("route"))
            _, rec_b = model.forward(x, "eval", rng=base.derive("route"))
        for a, b in zip(rec_a, rec_b):
            assert jaccard_rows(a.selection, b.selection).min() == 1.0

    def test_quantiles_are_ordered(self):
        model, splits = small_trained_model()
        spec = PerturbationSpec(gamma_levels=(0.05,), diagnostic_gamma=0.05,
                                repeats=2)
        for cell in layerwise_stability(model, splits["test"], spec, seed=0):
            assert 0.0 <= cell.q10 <= cell.q50 <= cell.q90 <= 1.0


class TestSensitivityRanking:
    def _cells(self, jaccards):
        return [StabilityCell(layer=i, gamma=0.01, mean_jaccard=j,
                              q10=j, q50=j, q90=j)
                for i, j in enumerate(jaccards)]

    def test_uniform_stability_gives_index_order(self):
        cells = self._cells([0.5, 0.5, 0.5])
        assert sensitivity_ranking(cells, 0.01) == [0, 1, 2]

    def test_weakest_layer_first(self):
        cells = self._cells([0.9, 0.95, 0.2])
        assert sensitivity_ranking(cells, 0.01)[0] == 2

    def test_reads_the_given_noise_level(self):
        cells = [StabilityCell(layer=i, gamma=g, mean_jaccard=j,
                               q10=j, q50=j, q90=j)
                 for g, js in ((0.01, (0.9, 0.2)), (0.05, (0.1, 0.8)))
                 for i, j in enumerate(js)]
        assert sensitivity_ranking(cells, 0.01) == [1, 0]
        assert sensitivity_ranking(cells, 0.05) == [0, 1]

    def test_invariant_under_dataset_duplication(self):
        model, splits = small_trained_model()
        spec = PerturbationSpec(gamma_levels=(0.02,), diagnostic_gamma=0.02,
                                repeats=2)
        test = splits["test"]
        doubled = type(test)(np.vstack([test.features, test.features]),
                             np.concatenate([test.labels, test.labels]),
                             test.num_classes)
        r1 = sensitivity_ranking(layerwise_stability(model, test, spec, 0),
                                 0.02)
        r2 = sensitivity_ranking(layerwise_stability(model, doubled, spec, 0),
                                 0.02)
        assert r1 == r2


class TestFixedTemperatureSweep:
    def test_low_temperature_matches_baseline(self):
        model, splits = small_trained_model()
        _, base_acc, _ = predictive_nll_acc(model, splits["test"],
                                            RngStream(0).derive("x"))
        diffs = []
        for stream in range(10):
            rows = fixed_temperature_layer_sweep(model, splits["test"],
                                                 [1e-4], [0, 1, 2],
                                                 seed=stream)
            diffs.extend(abs(r["accuracy"] - base_acc) for r in rows)
        assert np.mean(diffs) < 0.005

    def test_row_count(self):
        model, splits = small_trained_model()
        rows = fixed_temperature_layer_sweep(model, splits["test"],
                                             [0.5, 1.0], [0, 2], seed=0)
        assert len(rows) == 4
        assert [(r["layer"], r["temperature"]) for r in rows] == \
            [(0, 0.5), (0, 1.0), (2, 0.5), (2, 1.0)]

    def test_huge_temperature_at_first_layer_degrades_accuracy(self):
        # direction only, paired across seeds
        wins = 0
        for seed in range(5):
            model, splits = small_trained_model(seed=seed)
            _, base_acc, _ = predictive_nll_acc(model, splits["test"],
                                                RngStream(seed).derive("b"))
            rows = fixed_temperature_layer_sweep(model, splits["test"],
                                                 [1e3], [0], seed=seed)
            wins += rows[0]["accuracy"] < base_acc
        assert wins >= 4


def test_map_jaccard_non_increasing_in_gamma():
    # allow one inversion inside a +-0.01 noise band, checked across 5 seeds
    spec = PerturbationSpec(repeats=2)
    for seed in range(5):
        model, splits = small_trained_model(seed=seed)
        cells = layerwise_stability(model, splits["test"], spec, seed=0)
        for layer in range(len(model.blocks)):
            # Cells are layer-major, in the order of spec.gamma_levels.
            means = [c.mean_jaccard for c in cells if c.layer == layer]
            inversions = sum(1 for a, b in zip(means, means[1:])
                             if b > a + 0.01)
            assert inversions <= 1, (seed, layer, means)
