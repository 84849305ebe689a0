from collections import Counter

import numpy as np
import pytest

from vroute.rng import RngStream
from vroute.routers import gumbel_top_k, top_k_mask
from vroute.tensor import Tensor, no_grad

from conftest import (ZERO_GUMBEL_UNIFORM, assert_grad_close,
                      central_difference, enumerate_subset_probs,
                      total_variation)


def _sample_k(p, k, seed, shift=None):
    """Gumbel-top-k, the one sampler the routers use, on the rows of ``p``
    through their log-probabilities (plus an optional per-row shift, which
    leaves softmax unchanged)."""
    logits = np.log(np.atleast_2d(p))
    if shift is not None:
        logits = logits + shift[:, None]
    masks, _ = gumbel_top_k(logits, k, RngStream(seed).uniform(logits.shape))
    return masks


def _draw_counts(p, k, draws, seed, shift=None):
    masks = _sample_k(np.tile(p, (draws, 1)), k, seed, shift)
    return Counter(frozenset(np.nonzero(m)[0].tolist()) for m in masks)


class TestSampleKWithoutReplacement:
    def test_near_degenerate_selects_dominant(self):
        p = np.array([1.0 - 1e-12, 0.5e-12, 0.5e-12])
        masks = _sample_k(np.tile(p, (1_000_000, 1)), 1, seed=0)
        assert masks[:, 0].sum() >= 999_999

    def test_three_expert_set_probabilities(self):
        p = np.array([0.5, 0.3, 0.2])
        exact = enumerate_subset_probs(p, 2)
        # hand-checked: {0,1}=0.514286, {0,2}=0.325, {1,2}=0.160714
        assert exact[frozenset({0, 1})] == pytest.approx(0.514286, abs=1e-6)
        assert exact[frozenset({0, 2})] == pytest.approx(0.325, abs=1e-6)
        assert exact[frozenset({1, 2})] == pytest.approx(0.160714, abs=1e-6)
        counts = _draw_counts(p, 2, 100_000, seed=1)
        assert total_variation(counts, exact, 100_000) < 0.01

    def test_k_equals_n_selects_everything(self):
        p = np.array([0.25, 0.25, 0.25, 0.25])
        mask = _sample_k(p, 4, seed=2)
        np.testing.assert_array_equal(mask[0], np.ones(4))

    def test_mask_has_exactly_k_ones(self, np_rng):
        p = np_rng.dirichlet(np.ones(7), size=50)
        masks = _sample_k(p, 3, seed=5)
        np.testing.assert_array_equal(masks.sum(axis=1), np.full(50, 3))


class TestGumbelTopK:
    def test_zero_noise_is_deterministic_top_k(self, np_rng):
        logits = np_rng.normal(size=(10, 6))
        masks, relaxed = gumbel_top_k(logits, 2,
                                      np.full((10, 6), ZERO_GUMBEL_UNIFORM))
        np.testing.assert_array_equal(masks, top_k_mask(logits, 2))
        assert relaxed is None          # no relaxation off the tape

    def test_relaxation_follows_the_tape(self, np_rng):
        # Tracked logits get the relaxation on the tape and none under
        # no_grad; the selection is the same either way.
        logits = Tensor(np_rng.normal(size=(3, 5)), requires_grad=True)
        v = np_rng.uniform(size=(3, 5))
        taped, relaxed = gumbel_top_k(logits, 2, v)
        with no_grad():
            plain, none = gumbel_top_k(logits, 2, v)
        assert relaxed is not None and none is None
        np.testing.assert_array_equal(plain, taped)

    def test_matches_sequential_sampler_distribution(self):
        p = np.array([0.5, 0.3, 0.2])
        exact = enumerate_subset_probs(p, 2)
        counts = _draw_counts(p, 2, 100_000, seed=7)
        assert total_variation(counts, exact, 100_000) < 0.01

    def test_relaxed_weights_gradient_matches_soft_path(self, np_rng):
        logits = Tensor(np_rng.uniform(-1, 1, size=(1, 5)), requires_grad=True)
        v = np_rng.uniform(size=(1, 5))
        w = np_rng.normal(size=(1, 5))
        _, relaxed = gumbel_top_k(logits, 2, v)
        (relaxed * Tensor(w)).sum().backward()

        def ref():
            z = logits.data - np.log(-np.log(v))
            e = np.exp(z - z.max())
            return ((e / e.sum()) * w).sum()

        assert_grad_close(logits.grad, central_difference(lambda: ref(), logits))

    def test_relaxed_weights_are_the_softmax_of_the_perturbed_logits(
            self, np_rng):
        # The relaxation runs at temperature 1, so no op stands between the
        # perturbed logits and their softmax.
        logits = Tensor(np_rng.normal(size=(3, 5)), requires_grad=True)
        _, relaxed = gumbel_top_k(logits, 2, np_rng.uniform(size=(3, 5)))
        (perturbed,) = relaxed._parents
        assert perturbed._parents[0] is logits


@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 7)
                                 for k in range(1, min(3, n) + 1)])
def test_both_samplers_match_enumeration_on_small_grid(n, k):
    # lighter version of the acceptance sweep: one distribution per (n, k),
    # drawn from normalised log-probabilities and from logits shifted by a
    # random per-row constant (the routers pass unnormalised scaled logits)
    rng = np.random.default_rng(100 * n + k)
    p = rng.dirichlet(np.ones(n) * 2.0)
    exact = enumerate_subset_probs(p, k)
    draws = 40_000
    shift = rng.normal(scale=5.0, size=draws)
    tv_logp = total_variation(_draw_counts(p, k, draws, seed=n * 10 + k),
                              exact, draws)
    tv_shift = total_variation(_draw_counts(p, k, draws, seed=n * 17 + k,
                                            shift=shift), exact, draws)
    assert tv_logp < 0.015
    assert tv_shift < 0.015
