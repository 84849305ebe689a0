import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vroute.metrics import auprc, auroc, calibration_report, jaccard_rows
from vroute.model import mc_logit_var, shannon_entropy
from vroute.routers import RouterSettings, VglrRouter
from vroute.tensor import Tensor

from conftest import FixedGaussianPhi


def _report(conf, correct):
    """Calibration report of two-class rows whose top probability is
    ``conf`` (>= 0.5) and whose prediction is right where ``correct`` is 1."""
    conf = np.asarray(conf, dtype=np.float64)
    probs = np.stack([conf, 1.0 - conf], axis=1)
    labels = np.where(np.asarray(correct) == 1.0, 0, 1)
    return calibration_report(probs, labels)


class TestEce:
    def test_perfectly_confident_and_correct(self):
        assert _report(np.ones(10), np.ones(10)).ece == 0.0

    def test_single_bin_hand_value(self):
        conf = np.full(4, 0.9)
        correct = np.array([1.0, 1.0, 0.0, 0.0])
        rep = _report(conf, correct)
        assert rep.ece == pytest.approx(0.4, abs=1e-12)
        assert rep.mce == pytest.approx(0.4, abs=1e-12)

    def test_simulated_calibrated_scores_near_zero(self):
        rng = np.random.default_rng(0)
        conf = rng.uniform(0.5, 1.0, 100_000)
        correct = (rng.uniform(size=conf.size) < conf).astype(float)
        assert _report(conf, correct).ece < 0.02

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            calibration_report(np.full((3, 2), 0.5), np.zeros(4, dtype=int))

    def test_out_of_range_confidence_rejected(self):
        with pytest.raises(ValueError):
            calibration_report(np.array([[1.2, -0.2]]), np.array([0]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_probability_rejected(self, bad):
        # NaN passes the [0, 1] confidence check, since every comparison
        # with it is false.
        probs = np.array([[0.5, 0.5], [bad, 0.5]])
        with pytest.raises(ValueError, match="probabilities must be finite"):
            calibration_report(probs, np.array([0, 1]))

    @pytest.mark.parametrize("label", [-1, 2, 7])
    def test_label_outside_the_classes_rejected(self, label):
        # Index -1 would silently score the last class.
        probs = np.array([[0.9, 0.1], [0.2, 0.8]])
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\)"):
            calibration_report(probs, np.array([0, label]))

    def test_zero_rows_rejected(self):
        # Every mean over zero rows would be NaN.
        with pytest.raises(ValueError, match="no rows"):
            calibration_report(np.zeros((0, 3)), np.zeros(0, dtype=int))


class TestMce:
    def test_perfect_is_zero(self):
        assert _report(np.ones(8), np.ones(8)).mce == 0.0

    def test_mce_at_least_ece_random(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(5, 60))
            conf = rng.uniform(0.5, 1.0, n)
            correct = rng.integers(0, 2, n).astype(float)
            rep = _report(conf, correct)
            assert rep.mce >= rep.ece - 1e-12


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.1, 0.2], [0.3, 0.4]) == 1.0

    def test_identical_distributions_near_half(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=10_000)
        b = rng.normal(size=10_000)
        assert abs(auroc(a, b) - 0.5) < 0.01

    def test_pairwise_enumeration(self):
        # pairs won: (.1,.2) (.1,.3) (.1,.5) (.4,.5) -> 4/6
        assert auroc([0.1, 0.4], [0.2, 0.3, 0.5]) == pytest.approx(
            4.0 / 6.0, abs=1e-12)

    def test_brute_force_with_ties(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            a = rng.integers(0, 5, size=12).astype(float)
            b = rng.integers(0, 5, size=9).astype(float)
            wins = sum((bb > aa) + 0.5 * (bb == aa) for aa in a for bb in b)
            assert auroc(a, b) == pytest.approx(wins / (12 * 9), abs=1e-12)

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            auroc([], [0.1])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(-500, 500), min_size=2, max_size=20,
                    unique=True))
    def test_monotone_transform_invariance_and_symmetry(self, raw):
        # integer-spaced scores stay distinct under the exp transform
        values = [v / 100.0 for v in raw]
        half = len(values) // 2
        a, b = values[:half] or [values[0]], values[half:]
        base = auroc(a, b)
        transformed = auroc(np.exp(0.3 * np.asarray(a)),
                            np.exp(0.3 * np.asarray(b)))
        assert transformed == pytest.approx(base, abs=1e-12)
        assert auroc(a, b) + auroc(b, a) == pytest.approx(1.0, abs=1e-12)


class TestAuprc:
    def test_perfect_separation(self):
        assert auprc([0.1, 0.2], [0.3, 0.4]) == 1.0

    def test_constant_scores_balanced(self):
        assert auprc([1.0] * 5, [1.0] * 5) == pytest.approx(0.5, abs=1e-12)

    def test_brute_force_threshold_sweep(self):
        rng = np.random.default_rng(17)
        a = rng.normal(size=5)
        b = rng.normal(size=5)

        # oracle: step AP over descending unique thresholds
        scores = np.concatenate([a, b])
        labels = np.concatenate([np.zeros(5), np.ones(5)])
        expected, prev_recall = 0.0, 0.0
        for th in sorted(set(scores), reverse=True):
            sel = scores >= th
            tp = labels[sel].sum()
            recall = tp / labels.sum()
            precision = tp / sel.sum()
            expected += (recall - prev_recall) * precision
            prev_recall = recall
        assert auprc(a, b) == pytest.approx(expected, abs=1e-12)


def _auroc_loop(a, b):
    """Rank-sum AUROC walking the tie groups one at a time."""
    values = np.concatenate([a, b])
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.size, dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j < values.size and sorted_vals[j] == sorted_vals[i]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + j - 1) + 1.0
        i = j
    u = ranks[a.size:].sum() - b.size * (b.size + 1) / 2.0
    return float(u / (a.size * b.size))


def _auprc_loop(a, b):
    """Step average precision accumulated one tie group at a time."""
    scores = np.concatenate([a, b])
    positive = np.concatenate([np.zeros(a.size), np.ones(b.size)])
    order = np.argsort(-scores, kind="mergesort")
    scores, positive = scores[order], positive[order]
    ap = tp = fp = prev_recall = 0.0
    i = 0
    while i < scores.size:
        j = i
        while j < scores.size and scores[j] == scores[i]:
            j += 1
        tp += positive[i:j].sum()
        fp += (j - i) - positive[i:j].sum()
        recall = tp / float(b.size)
        ap += (recall - prev_recall) * (tp / (tp + fp))
        prev_recall = recall
        i = j
    return float(ap)


def _score_sets(kind, rng):
    na, nb = rng.integers(1, 80, size=2)
    if kind == "tied":
        return (rng.integers(0, 6, na).astype(float),
                rng.integers(0, 6, nb).astype(float))
    if kind == "untied":
        return rng.normal(size=na), rng.normal(size=nb) + 0.3
    if kind == "one_id":
        return rng.normal(size=1), rng.normal(size=nb)
    if kind == "one_ood":
        return rng.normal(size=na), rng.normal(size=1)
    return rng.normal(size=1), rng.normal(size=1)


@pytest.mark.parametrize("kind", ["tied", "untied", "one_id", "one_ood", "one_each"])
def test_detection_metrics_equal_the_tie_group_loops_bit_for_bit(kind):
    rng = np.random.default_rng(31)
    for _ in range(200):
        a, b = _score_sets(kind, rng)
        assert auroc(a, b) == _auroc_loop(a, b)
        assert auprc(a, b) == _auprc_loop(a, b)
    for a, b in (([1.0], [1.0]), ([2.0, 2.0], [2.0]), ([0.5], [0.5, 0.2])):
        a, b = np.asarray(a), np.asarray(b)
        assert auroc(a, b) == _auroc_loop(a, b)
        assert auprc(a, b) == _auprc_loop(a, b)


class TestGateEntropy:
    def test_one_hot_is_zero(self):
        assert shannon_entropy(np.eye(6)[2]) == 0.0

    def test_uniform_forty(self):
        assert shannon_entropy(np.full(40, 1 / 40)) == pytest.approx(
            math.log(40), abs=1e-12)

    def test_matches_term_by_term_sum(self):
        rng = np.random.default_rng(2)
        p = rng.dirichlet(np.ones(9))
        expected = -sum(pi * math.log(pi) for pi in p if pi > 0)
        assert shannon_entropy(p) == pytest.approx(expected, abs=1e-12)


def _inferred_variance(n, **posterior) -> float:
    """The vglr router's inferred-variance signal for one token under a fixed
    posterior: the trace of its covariance."""
    phi = FixedGaussianPhi(np.zeros(n), **posterior)
    router = VglrRouter(Tensor(np.eye(n)), 1, RouterSettings(), phi)
    res = router.route(Tensor(np.zeros((1, n))), "eval",
                       noise=np.zeros((1, 1, n)))
    return float(res.signals["inf_logit_var"][0])


class TestInfLogitVar:
    def test_identity_factor(self):
        assert _inferred_variance(5, chol=np.eye(5)) == pytest.approx(
            5.0, abs=1e-12)

    def test_diagonal_sigmas(self):
        assert _inferred_variance(2, sigma=np.array([2.0, 3.0])) == \
            pytest.approx(13.0, abs=1e-12)

    def test_matches_trace_of_product(self):
        rng = np.random.default_rng(21)
        L = np.tril(rng.normal(size=(6, 6)))
        L[np.arange(6), np.arange(6)] = np.exp(np.diag(L))
        assert _inferred_variance(6, chol=L) == pytest.approx(
            np.trace(L @ L.T), abs=1e-9)


class TestMcLogitVar:
    def test_identical_rows_zero(self):
        assert mc_logit_var(np.ones((1, 7, 3)))[0] == 0.0

    def test_hand_computed_pair(self):
        samples = np.array([[[0.0, 0.0], [2.0, 0.0]]])
        assert mc_logit_var(samples)[0] == pytest.approx(2.0, abs=1e-12)

    def test_quadratic_homogeneity(self):
        rng = np.random.default_rng(8)
        s = rng.normal(size=(1, 10, 4))
        centre = s.mean(1, keepdims=True)
        doubled = centre + 2.0 * (s - centre)
        assert mc_logit_var(doubled)[0] == pytest.approx(
            4 * mc_logit_var(s)[0], rel=1e-12)

    @pytest.mark.parametrize("sample_major", [False, True])
    def test_squares_in_place_with_the_bits_of_power(self, sample_major):
        rng = np.random.default_rng(9)
        s = rng.normal(size=(8, 35, 500)).T if sample_major else \
            rng.normal(size=(500, 35, 8))
        c = np.ascontiguousarray(s)
        dev = c - c.mean(axis=1, keepdims=True)
        want = (dev ** 2).sum(axis=(1, 2)) / 34
        np.testing.assert_array_equal(mc_logit_var(s), want)


def jaccard(set_a, set_b) -> float:
    """Oracle: |intersection| / |union| of two expert sets.

    Accepts index iterables, or bool/float arrays interpreted as selection
    masks (the mask convention used by the routers).
    """
    def as_set(x):
        if isinstance(x, np.ndarray) and (x.dtype == bool
                                          or np.issubdtype(x.dtype, np.floating)):
            return set(np.nonzero(x)[0].tolist())
        return set(int(v) for v in x)
    sa, sb = as_set(set_a), as_set(set_b)
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


class TestJaccard:
    def test_equal_sets(self):
        assert jaccard({1, 2, 3}, {1, 2, 3}) == 1.0

    def test_disjoint_sets(self):
        assert jaccard({0, 1}, {2, 3}) == 0.0

    def test_eight_element_half_overlap(self):
        a = set(range(8))
        b = set(range(4, 12))
        assert jaccard(a, b) == pytest.approx(4 / 12, abs=1e-12)

    def test_symmetry_and_mask_input(self):
        a = np.array([1.0, 0.0, 1.0, 0.0])
        b = np.array([1.0, 1.0, 0.0, 0.0])
        assert jaccard(a, b) == jaccard(b, a) == pytest.approx(1 / 3)

    def test_rowwise_matches_scalar(self):
        rng = np.random.default_rng(4)
        a = (rng.uniform(size=(20, 6)) < 0.4).astype(float)
        b = (rng.uniform(size=(20, 6)) < 0.4).astype(float)
        rows = jaccard_rows(a, b)
        for i in range(20):
            assert rows[i] == pytest.approx(jaccard(a[i], b[i]), abs=1e-12)


def test_calibration_report_consistency():
    rng = np.random.default_rng(9)
    logits = rng.normal(size=(400, 4))
    probs = np.exp(logits) / np.exp(logits).sum(1, keepdims=True)
    labels = rng.integers(0, 4, 400)
    rep = calibration_report(probs, labels)
    conf = probs.max(1)
    correct = (probs.argmax(1) == labels).astype(float)
    bins = np.minimum((conf * 15).astype(int), 14)
    used = [b for b in range(15) if (bins == b).any()]
    gaps = [abs(correct[bins == b].mean() - conf[bins == b].mean()) for b in used]
    weights = [(bins == b).mean() for b in used]
    assert rep.ece == pytest.approx(float(np.dot(weights, gaps)), abs=1e-12)
    assert rep.mce == pytest.approx(max(gaps), abs=1e-12)
    assert rep.accuracy == pytest.approx(correct.mean(), abs=1e-12)
    assert 0 <= rep.ece <= rep.mce <= 1
    assert sum(rep.bin_count) == 400
    assert rep.bin_edges[0] == 0.0 and rep.bin_edges[-1] == 1.0
