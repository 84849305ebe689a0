import math

import numpy as np
import pytest

from vroute.rng import RngStream
from vroute.routers import (GaussianInferenceNet, McDropoutRouter, MapRouter,
                            RouterSettings, TempScaleRouter, TemperatureNet,
                            VglrRouter, VtsrRouter, build_cholesky,
                            kl_fc_per_token, kl_mf_per_token, top_k_mask)
from vroute.tensor import Tensor

from conftest import (ZERO_GUMBEL_UNIFORM, FixedGaussianPhi,
                      assert_grad_close, central_difference)


def _logit_router(logits):
    """Identity-input setup: u = logits, w_r = I, so l_det = logits."""
    n = len(logits)
    return np.asarray(logits, dtype=np.float64), np.eye(n)


def _route_one(router, u, mode="eval", **kw):
    """Route a single token (batch of one) through a batch router."""
    return router.route(Tensor(np.asarray(u)[None, :]), mode, **kw)


def _map_router(w, k):
    return MapRouter(Tensor(w), k, RouterSettings())


def _kl_mf(dmu, sigma) -> float:
    return float(kl_mf_per_token(Tensor(np.atleast_2d(dmu)),
                                 Tensor(np.atleast_2d(sigma))).data[0])


def _kl_fc(dmu, L) -> float:
    return float(kl_fc_per_token(Tensor(np.atleast_2d(dmu)),
                                 Tensor(np.asarray(L)[None])).data[0])


def _temperature(net, u) -> float:
    return float(net.temperature(Tensor(np.atleast_2d(u))).data[0, 0])


def _const_temp_net(dim, t):
    net = TemperatureNet(dim, 2, RngStream(0))
    for _, p in net.param_items():
        p.data[...] = 0.0
    # softplus(b2) + floor == t; softplus is the identity for large inputs
    target = max(t - 1e-6, 1e-12)
    net.b2.data[...] = target if target > 30 else math.log(math.expm1(target))
    return net


class TestDeterministicRoute:
    def test_forced_argmax(self):
        u, w = _logit_router([3.0, 1.0, 2.0, 0.0])
        res = _route_one(_map_router(w, 2), u)
        np.testing.assert_array_equal(res.selection[0], [1, 0, 1, 0])
        logits = u @ w
        p = np.exp(logits) / np.exp(logits).sum()
        np.testing.assert_allclose(res.gate_weights.data[0],
                                   [p[0] / (p[0] + p[2]), 0.0,
                                    p[2] / (p[0] + p[2]), 0.0], atol=1e-12)
        assert res.kl_per_token[0] == 0.0

    def test_tie_break_lowest_index(self):
        u, w = _logit_router([1.0] * 5)
        res = _route_one(_map_router(w, 2), u)
        np.testing.assert_array_equal(res.selection[0], [1, 1, 0, 0, 0])
        np.testing.assert_allclose(res.gate_weights.data[0],
                                   [0.5, 0.5, 0, 0, 0], atol=1e-12)

    def test_matches_full_sort(self, np_rng):
        for _ in range(20):
            u, w = _logit_router(np_rng.normal(size=8))
            res = _route_one(_map_router(w, 3), u)
            expected = set(np.argsort(-(u @ w), kind="stable")[:3])
            assert set(np.nonzero(res.selection[0])[0]) == expected

    def test_k_too_large_rejected(self):
        u, w = _logit_router([0.0, 1.0])
        with pytest.raises(ValueError):
            _map_router(w, 3)

    def test_gates_sum_to_one(self, np_rng):
        u, w = _logit_router(np_rng.normal(size=6))
        res = _route_one(_map_router(w, 4), u)
        gates = res.gate_weights.data[0]
        assert gates.sum() == pytest.approx(1.0, abs=1e-12)
        assert ((gates > 0) == (res.selection[0] == 1)).all()


class TestBuildCholesky:
    def test_zeros_give_identity(self):
        out = build_cholesky(Tensor(np.zeros(3)))
        np.testing.assert_array_equal(out.data, np.eye(2))

    def test_fill_order_and_diag_exp(self):
        a, b, c = 0.3, -1.2, 0.7
        out = build_cholesky(Tensor([a, b, c])).data
        np.testing.assert_allclose(
            out, [[math.exp(a), 0.0], [b, math.exp(c)]], atol=1e-15)

    def test_product_is_spd(self, np_rng):
        flat = Tensor(np_rng.normal(size=15))
        L = build_cholesky(flat).data
        sigma = L @ L.T
        np.testing.assert_allclose(sigma, sigma.T, atol=1e-12)
        # brute-force positive-definiteness via eigenvalues
        assert np.linalg.eigvalsh(sigma).min() > 0.0

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            build_cholesky(Tensor(np.zeros(4)))

    def test_differentiable(self, np_rng):
        flat = Tensor(np_rng.uniform(-1, 1, size=6), requires_grad=True)
        w = np_rng.normal(size=(3, 3))
        (build_cholesky(flat) * Tensor(w)).sum().backward()

        def ref():
            L = np.zeros((3, 3))
            r, c = np.tril_indices(3)
            L[r, c] = flat.data
            L[np.arange(3), np.arange(3)] = np.exp(np.diag(L))
            return (L * w).sum()

        assert_grad_close(flat.grad, central_difference(lambda: ref(), flat))


class TestKlMeanField:
    def test_zero_at_prior(self):
        for n in (1, 3, 8):
            assert _kl_mf(np.zeros(n), np.ones(n)) == pytest.approx(0.0, abs=1e-12)

    def test_single_dim_mean_shift(self):
        assert _kl_mf([1.0], [1.0]) == pytest.approx(0.5, abs=1e-12)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError):
            _kl_mf([0.0], [0.0])

    def test_monte_carlo_oracle(self, np_rng):
        n = 4
        dmu = np_rng.uniform(-1.5, 1.5, n) + 0.3
        sigma = np.exp(np_rng.uniform(-0.5, 0.5, n))
        closed = _kl_mf(dmu, sigma)
        eps = np_rng.standard_normal((1_000_000, n))
        x = dmu + sigma * eps
        log_q = -0.5 * (eps ** 2).sum(1) - np.log(sigma).sum()
        log_p = -0.5 * (x ** 2).sum(1)
        mc = (log_q - log_p).mean()
        assert abs(closed - mc) / abs(mc) < 0.01


class TestKlFullCovariance:
    def test_zero_at_prior(self):
        assert _kl_fc(np.zeros(4), np.eye(4)) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_matches_mean_field(self, np_rng):
        dmu = np_rng.normal(size=5)
        sigma = np.exp(np_rng.uniform(-1, 1, size=5))
        assert _kl_fc(dmu, np.diag(sigma)) == pytest.approx(
            _kl_mf(dmu, sigma), abs=1e-12)

    def test_invalid_factor_rejected(self):
        with pytest.raises(ValueError):
            _kl_fc(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            _kl_fc(np.zeros(2), np.array([[1.0, 0.0], [0.5, -1.0]]))

    def test_monte_carlo_oracle(self, np_rng):
        n = 4
        dmu = np_rng.uniform(-1.5, 1.5, n) + 0.3
        L = build_cholesky(Tensor(np_rng.uniform(-0.4, 0.4, 10))).data
        closed = _kl_fc(dmu, L)
        eps = np_rng.standard_normal((1_000_000, n))
        x = dmu + eps @ L.T
        log_q = -0.5 * (eps ** 2).sum(1) - np.log(np.diag(L)).sum()
        log_p = -0.5 * (x ** 2).sum(1)
        mc = (log_q - log_p).mean()
        assert abs(closed - mc) / abs(mc) < 0.01


class TestTemperature:
    def test_softplus_zero(self):
        net = TemperatureNet(4, 2, RngStream(0))
        for _, p in net.param_items():
            p.data[...] = 0.0
        t = _temperature(net, np.ones(4))
        assert t == pytest.approx(math.log(2.0) + 1e-6, abs=1e-12)

    def test_floor_for_very_negative_raw(self):
        net = TemperatureNet(2, 2, RngStream(0))
        for _, p in net.param_items():
            p.data[...] = 0.0
        net.b2.data[...] = -200.0
        t = _temperature(net, np.ones(2))
        assert t == pytest.approx(1e-6, rel=1e-6)
        assert t > 0.0

    def test_direct_evaluation_at_three(self):
        net = TemperatureNet(2, 2, RngStream(0))
        for _, p in net.param_items():
            p.data[...] = 0.0
        net.b2.data[...] = 3.0
        t = _temperature(net, np.ones(2))
        assert t == pytest.approx(math.log(1 + math.exp(3.0)) + 1e-6, abs=1e-9)

    def test_temp_reg_values(self):
        # vtsr's training regulariser is -log T: zero at T = 1.
        u, w = _logit_router(np.array([1.0, 0.0, -1.0]))
        for t, reg, tol in ((1.0, 0.0, 1e-15), (math.e, -1.0, 1e-12),
                            (0.5, math.log(2.0), 1e-12)):
            router = VtsrRouter(Tensor(w), 2, RouterSettings(),
                                _const_temp_net(3, t))
            res = _route_one(router, u, "train", noise={
                "uniform": np.full((1, 3), ZERO_GUMBEL_UNIFORM)})
            assert res.kl_term.item() == pytest.approx(reg, abs=tol)
            assert res.kl_per_token[0] == pytest.approx(reg, abs=tol)


class TestVglrRoute:
    def _router(self, w, phi, **settings):
        return VglrRouter(Tensor(w), 2, RouterSettings(**settings), phi)

    def test_collapsed_posterior_matches_deterministic(self, np_rng):
        n = 6
        for trial in range(10):
            u, w = _logit_router(np_rng.normal(size=n))
            phi = FixedGaussianPhi(np.zeros(n), sigma=np.full(n, 1e-8))
            router = self._router(w, phi)
            res = _route_one(router, u, rng=RngStream(trial))
            det = _route_one(_map_router(w, 2), u)
            np.testing.assert_array_equal(res.selection, det.selection)

    def test_zero_noise_recovers_shifted_logits(self, np_rng):
        n = 4
        u, w = _logit_router(np_rng.normal(size=n))
        dmu = np_rng.normal(size=n)
        phi = FixedGaussianPhi(dmu, sigma=np.ones(n))
        router = self._router(w, phi)
        noise = {"normal": np.zeros((1, 1, n))}
        res = router.route(Tensor(u[None, :]), "train", noise=noise)
        np.testing.assert_allclose(res.logits_sampled[0, 0],
                                   u @ w + dmu, atol=1e-12)

    def test_eval_averaging_matches_independent_mc(self, np_rng):
        # fixed posterior: averaged probs vs an oracle with its own RNG
        n = 3
        u, w = _logit_router(np.array([0.5, 0.0, -0.5]))
        dmu = np.array([0.1, -0.2, 0.3])
        sigma = np.array([0.8, 1.2, 0.5])
        phi = FixedGaussianPhi(dmu, sigma=sigma)
        res = _route_one(self._router(w, phi, eval_samples=100_000), u,
                         rng=RngStream(77))
        eps = np_rng.standard_normal((100_000, n))
        logits = (u @ w) + dmu + sigma * eps
        e = np.exp(logits - logits.max(1, keepdims=True))
        oracle = (e / e.sum(1, keepdims=True)).mean(0)
        assert 0.5 * np.abs(res.probs[0] - oracle).sum() < 0.005

    def test_signals_and_kl(self, np_rng):
        n = 4
        u, w = _logit_router(np_rng.normal(size=n))
        chol = build_cholesky(Tensor(np_rng.uniform(-0.3, 0.3, 10))).data
        phi = FixedGaussianPhi(np.zeros(n), chol=chol)
        router = self._router(w, phi, eval_samples=16)
        res = _route_one(router, u, rng=RngStream(5))
        assert res.signals["inf_logit_var"][0] == pytest.approx((chol ** 2).sum())
        assert res.signals["inf_temp"] is None
        assert res.signals["mc_logit_var"] is not None
        assert res.kl_per_token[0] == pytest.approx(_kl_fc(np.zeros(n), chol),
                                                    abs=1e-9)

    def test_trained_phi_gradients_flow(self, np_rng):
        n, d = 3, 5
        phi = GaussianInferenceNet(d, 4, n, full_cov=True, rng=RngStream(3))
        router = VglrRouter(Tensor(np_rng.normal(size=(d, n))), 1,
                            RouterSettings(), phi)
        u = Tensor(np_rng.normal(size=(2, d)))
        res = router.route(u, "train", rng=RngStream(8))
        loss = (res.gate_weights * Tensor(np_rng.normal(size=(2, n)))).sum() \
            + res.kl_term
        loss.backward()
        for _, p in phi.param_items():
            assert p.grad is not None


class TestVtsrRoute:
    def _router(self, w, net):
        return VtsrRouter(Tensor(w), 2, RouterSettings(), net)

    def test_low_temperature_recovers_top_k(self, np_rng):
        n = 5
        u, w = _logit_router(np.array([3.0, 2.0, 1.0, 0.0, -1.0]))
        router = self._router(w, _const_temp_net(n, 1e-4))
        hits = 0
        for trial in range(200):
            res = _route_one(router, u, rng=RngStream(trial))
            hits += (res.selection[0, :2] == 1).all()
        assert hits == 200

    def test_high_temperature_entropy_near_uniform(self):
        n = 6
        u, w = _logit_router(np.arange(n, dtype=float))
        router = self._router(w, _const_temp_net(n, 1e3))
        res = _route_one(router, u, rng=RngStream(1))
        assert abs(res.signals["gate_entropy"][0] - math.log(n)) < 1e-3
        assert res.signals["inf_temp"][0] == pytest.approx(1e3, rel=1e-3)

    def test_gumbel_zero_noise_recovers_top_k(self):
        n = 4
        u, w = _logit_router(np.array([2.0, 1.0, 0.0, -1.0]))
        net = _const_temp_net(n, 2.0)
        router = self._router(w, net)
        res = router.route(Tensor(u[None, :]), "train", noise={
            "uniform": np.full((1, n), ZERO_GUMBEL_UNIFORM)})
        np.testing.assert_array_equal(res.selection[0], [1, 1, 0, 0])

    def test_train_kl_slot_holds_temperature_regulariser(self):
        n = 3
        u, w = _logit_router(np.array([1.0, 0.0, -1.0]))
        net = _const_temp_net(n, 0.5)
        router = self._router(w, net)
        res = router.route(Tensor(u[None, :]), "train", noise={
            "uniform": np.full((1, n), ZERO_GUMBEL_UNIFORM)})
        assert res.kl_term.item() == pytest.approx(math.log(2.0), abs=1e-9)
        assert res.kl_per_token[0] == pytest.approx(math.log(2.0), abs=1e-9)

    def test_straight_through_gates_match_hard_renormalisation(self):
        n = 4
        u, w = _logit_router(np.array([2.0, 1.0, 0.5, 0.0]))
        net = _const_temp_net(n, 1.5)
        router = self._router(w, net)
        res = router.route(Tensor(u[None, :]), "train", noise={
            "uniform": np.full((1, n), ZERO_GUMBEL_UNIFORM)})
        p = np.exp((u @ w) / 1.5)
        p /= p.sum()
        expected = np.where(res.selection[0] == 1, p, 0.0)
        expected /= expected.sum()
        np.testing.assert_allclose(res.gate_weights.data[0], expected,
                                   atol=1e-12)


class TestMcDropoutRoute:
    def _router(self, w, rate, s=8, k=2):
        return McDropoutRouter(Tensor(w), k, RouterSettings(
            eval_samples=s, dropout_rate=rate))

    def test_zero_rate_matches_deterministic(self, np_rng):
        n = 5
        u, w = _logit_router(np_rng.normal(size=n))
        router = self._router(w, 0.0)
        res = _route_one(router, u, rng=RngStream(3))
        det = _route_one(_map_router(w, 2), u)
        np.testing.assert_array_equal(res.selection, det.selection)
        assert res.signals["mc_logit_var"][0] == pytest.approx(0.0, abs=1e-18)

    def test_identical_masks_zero_variance(self):
        n = 4
        u, w = _logit_router(np.ones(n))
        router = self._router(w, 0.5, s=6)
        # uniforms all 0.9 -> every mask keeps every coordinate
        noise = {"uniform": np.full((1, 6, n), 0.9)}
        res = router.route(Tensor(u[None, :]), "eval", noise=noise)
        assert res.signals["mc_logit_var"][0] == pytest.approx(0.0, abs=1e-18)

    def test_two_coordinate_enumeration(self):
        # rate 0.5, u=(1,1), w=I: each logit is 0 or 2 with probability 1/2,
        # independently; the total logit variance is then exactly 2.
        u = np.array([1.0, 1.0])
        w = np.eye(2)
        router = self._router(w, 0.5, s=100_000, k=1)
        res = router.route(Tensor(u[None, :]), "eval", rng=RngStream(11))
        samples = res.logits_sampled[0]
        values, counts = np.unique(samples[:, 0], return_counts=True)
        np.testing.assert_array_equal(values, [0.0, 2.0])
        assert abs(counts[0] / samples.shape[0] - 0.5) < 0.01
        assert abs(res.signals["mc_logit_var"][0] - 2.0) / 2.0 < 0.02

    def test_samples_taken_from_noise_shape(self, np_rng):
        # Predictive passes route with one dropout sample per pass, whatever
        # eval_samples says.
        n, b = 4, 3
        router = self._router(np_rng.normal(size=(n, n)), 0.5, s=35)
        noise = {"uniform": np_rng.uniform(size=(b, 1, n))}
        res = router.route(Tensor(np_rng.normal(size=(b, n))), "eval",
                           noise=noise)
        assert res.logits_sampled.shape == (b, 1, n)
        np.testing.assert_array_equal(res.signals["mc_logit_var"], np.zeros(b))


class TestFixedTempRoute:
    def _router(self, w, t_global, k=2):
        return TempScaleRouter(Tensor(w), k, RouterSettings(
            global_temperature=t_global))

    def test_low_temperature_is_top_k(self):
        u, w = _logit_router(np.array([2.0, 1.0, 0.0, -1.0]))
        router = self._router(w, 1e-4)
        hits = sum((_route_one(router, u, rng=RngStream(t)).selection[0, :2]
                    == 1).all() for t in range(100))
        assert hits == 100

    def test_gates_renormalised_over_selection(self):
        u, w = _logit_router(np.array([1.0, 0.5, 0.0]))
        res = _route_one(self._router(w, 0.7), u, rng=RngStream(4))
        gates = res.gate_weights.data[0]
        assert gates.sum() == pytest.approx(1.0, abs=1e-12)
        assert ((gates > 0) == (res.selection[0] == 1)).all()

    def test_selection_distribution_matches_enumeration(self):
        from collections import Counter
        from conftest import enumerate_subset_probs, total_variation
        u, w = _logit_router(np.array([2.0, 1.0, 0.0, -1.0]))
        t_global = 2.0
        scaled = (u @ w) / t_global
        p = np.exp(scaled) / np.exp(scaled).sum()
        exact = enumerate_subset_probs(p, 2)
        router = self._router(w, t_global)
        draws = 100_000
        res = router.route(Tensor(np.tile(u, (draws, 1))), "eval",
                           rng=RngStream(99))
        counts = Counter(frozenset(np.nonzero(m)[0].tolist())
                         for m in res.selection)
        assert total_variation(counts, exact, draws) < 0.01


def test_top_k_mask_tie_rule():
    mask = top_k_mask(np.array([[1.0, 1.0, 1.0, 0.5]]), 2)
    np.testing.assert_array_equal(mask[0], [1, 1, 0, 0])
