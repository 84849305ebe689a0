import inspect
import math
import tracemalloc

import numpy as np
import pytest

from vroute import routers as R
from vroute import tensor as T
from vroute.model import mc_logit_var, shannon_entropy
from vroute.rng import RngStream
from vroute.routers import (GaussianInferenceNet, McDropoutRouter, MapRouter,
                            RouterBase, RouterSettings, TempScaleRouter,
                            TemperatureNet, VglrRouter, VtsrRouter,
                            build_cholesky, kept_inputs, kl_fc_per_token,
                            kl_mf_per_token, make_router, top_k_mask)
from vroute.tensor import Tensor

from conftest import (ZERO_GUMBEL_UNIFORM, FixedGaussianPhi,
                      assert_grad_close, central_difference)


def _logit_router(logits):
    """Identity-input setup: u = logits, w_r = I, so l_det = logits."""
    n = len(logits)
    return np.asarray(logits, dtype=np.float64), np.eye(n)


def _route(router, u, mode, seed=None, **kw):
    """Route the batch ``u``; with a ``seed``, on noise drawn from
    ``RngStream(seed)`` as a pass draws it: one sample per token in
    training, ``eval_samples`` in eval."""
    if seed is not None:
        samples = 1 if mode == "train" else router.settings.eval_samples
        kw["noise"] = router.draw_noise(RngStream(seed), (u.shape[0],),
                                        samples)
    return router.route(u, mode, **kw)


def _route_one(router, u, mode="eval", **kw):
    """Route a single token (batch of one) through a batch router."""
    return _route(router, Tensor(np.asarray(u)[None, :]), mode, **kw)


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
        assert res.kl is None and res.signals == {}

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
        out = build_cholesky(Tensor(np.zeros((1, 3))))
        np.testing.assert_array_equal(out.data[0], np.eye(2))

    def test_fill_order_and_diag_exp(self):
        a, b, c = 0.3, -1.2, 0.7
        out = build_cholesky(Tensor([[a, b, c]])).data[0]
        np.testing.assert_allclose(
            out, [[math.exp(a), 0.0], [b, math.exp(c)]], atol=1e-15)

    def test_product_is_spd(self, np_rng):
        flat = Tensor(np_rng.normal(size=(1, 15)))
        L = build_cholesky(flat).data[0]
        sigma = L @ L.T
        np.testing.assert_allclose(sigma, sigma.T, atol=1e-12)
        # brute-force positive-definiteness via eigenvalues
        assert np.linalg.eigvalsh(sigma).min() > 0.0

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            build_cholesky(Tensor(np.zeros((1, 4))))

    def test_differentiable(self, np_rng):
        flat = Tensor(np_rng.uniform(-1, 1, size=(1, 6)), requires_grad=True)
        w = np_rng.normal(size=(3, 3))
        (build_cholesky(flat) * Tensor(w)).sum().backward()

        def ref():
            L = np.zeros((3, 3))
            r, c = np.tril_indices(3)
            L[r, c] = flat.data[0]
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
        L = build_cholesky(Tensor(np_rng.uniform(-0.4, 0.4, (1, 10)))).data[0]
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
            res = _route_one(router, u, "train", noise=np.full(
                (1, 3), ZERO_GUMBEL_UNIFORM))
            assert res.kl.data[0] == pytest.approx(reg, abs=tol)


class TestVglrRoute:
    def _router(self, w, phi, **settings):
        return VglrRouter(Tensor(w), 2, RouterSettings(**settings), phi)

    def test_collapsed_posterior_matches_deterministic(self, np_rng):
        n = 6
        for trial in range(10):
            u, w = _logit_router(np_rng.normal(size=n))
            phi = FixedGaussianPhi(np.zeros(n), sigma=np.full(n, 1e-8))
            router = self._router(w, phi)
            res = _route_one(router, u, seed=trial)
            det = _route_one(_map_router(w, 2), u)
            np.testing.assert_array_equal(res.selection, det.selection)

    def test_zero_noise_recovers_shifted_logits(self, np_rng):
        n = 4
        u, w = _logit_router(np_rng.normal(size=n))
        dmu = np_rng.normal(size=n)
        phi = FixedGaussianPhi(dmu, sigma=np.ones(n))
        router = self._router(w, phi)
        noise = np.zeros((1, 1, n))
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
        res = _route_one(self._router(w, phi, eval_samples=100_000), u, seed=77)
        eps = np_rng.standard_normal((100_000, n))
        logits = (u @ w) + dmu + sigma * eps
        e = np.exp(logits - logits.max(1, keepdims=True))
        oracle = (e / e.sum(1, keepdims=True)).mean(0)
        assert 0.5 * np.abs(res.probs[0] - oracle).sum() < 0.005

    def test_signals_and_kl(self, np_rng):
        n = 4
        u, w = _logit_router(np_rng.normal(size=n))
        chol = build_cholesky(Tensor(np_rng.uniform(-0.3, 0.3, (1, 10)))).data[0]
        phi = FixedGaussianPhi(np.zeros(n), chol=chol)
        router = self._router(w, phi, eval_samples=16)
        res = _route_one(router, u, seed=5)
        assert res.signals["inf_logit_var"][0] == pytest.approx((chol ** 2).sum())
        assert set(res.signals) == {"inf_logit_var"}
        assert res.logits_sampled.shape == (1, 16, n)
        assert res.kl.data[0] == pytest.approx(_kl_fc(np.zeros(n), chol),
                                               abs=1e-9)

    def test_trained_phi_gradients_flow(self, np_rng):
        n, d = 3, 5
        phi = GaussianInferenceNet(d, 4, n, full_cov=True, rng=RngStream(3))
        router = VglrRouter(Tensor(np_rng.normal(size=(d, n))), 1,
                            RouterSettings(), phi)
        u = Tensor(np_rng.normal(size=(2, d)))
        res = _route(router, u, "train", seed=8)
        loss = (res.gate_weights * Tensor(np_rng.normal(size=(2, n)))).sum() \
            + res.kl.mean()
        loss.backward()
        for _, p in phi.param_items():
            assert p.grad is not None


    def test_full_covariance_eval_route_builds_no_outer_product(self):
        # At B=500, S=35, N=8 the broadcast product of the Cholesky factors
        # with the noise, [B, S, N, N], takes 8.96 MB by itself.  The column
        # products keep at most five [B, S, N] arrays (1.12 MB each) alive.
        b, s, n, d = 500, 35, 8, 32
        phi = GaussianInferenceNet(d, 8, n, full_cov=True, rng=RngStream(2))
        router = VglrRouter(Tensor(RngStream(1).normal((d, n))), 2,
                            RouterSettings(eval_samples=s), phi)
        u = Tensor(RngStream(3).normal((b, d)))
        noise = router.draw_noise(RngStream(4), (b,), s)
        with T.no_grad():
            tracemalloc.start()
            try:
                res = router.route(u, "eval", noise=noise)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert res.logits_sampled.shape == (b, s, n)
        assert peak < 0.75 * (b * s * n * n * 8)

class TestVtsrRoute:
    def _router(self, w, net):
        return VtsrRouter(Tensor(w), 2, RouterSettings(), net)

    def test_low_temperature_recovers_top_k(self, np_rng):
        n = 5
        u, w = _logit_router(np.array([3.0, 2.0, 1.0, 0.0, -1.0]))
        router = self._router(w, _const_temp_net(n, 1e-4))
        hits = 0
        for trial in range(200):
            res = _route_one(router, u, seed=trial)
            hits += (res.selection[0, :2] == 1).all()
        assert hits == 200

    def test_high_temperature_entropy_near_uniform(self):
        n = 6
        u, w = _logit_router(np.arange(n, dtype=float))
        router = self._router(w, _const_temp_net(n, 1e3))
        res = _route_one(router, u, seed=1)
        assert abs(shannon_entropy(res.probs)[0] - math.log(n)) < 1e-3
        assert res.signals["inf_temp"][0] == pytest.approx(1e3, rel=1e-3)

    def test_gumbel_zero_noise_recovers_top_k(self):
        n = 4
        u, w = _logit_router(np.array([2.0, 1.0, 0.0, -1.0]))
        net = _const_temp_net(n, 2.0)
        router = self._router(w, net)
        res = router.route(Tensor(u[None, :]), "train", noise=np.full(
            (1, n), ZERO_GUMBEL_UNIFORM))
        np.testing.assert_array_equal(res.selection[0], [1, 1, 0, 0])

    def test_train_kl_slot_holds_temperature_regulariser(self):
        n = 3
        u, w = _logit_router(np.array([1.0, 0.0, -1.0]))
        net = _const_temp_net(n, 0.5)
        router = self._router(w, net)
        res = router.route(Tensor(u[None, :]), "train", noise=np.full(
            (1, n), ZERO_GUMBEL_UNIFORM))
        assert res.kl.data[0] == pytest.approx(math.log(2.0), abs=1e-9)

    def test_straight_through_term_adds_nothing(self, np_rng):
        # On the tape the gates carry the relaxation's gradient; their values
        # are the bits of the same route under no_grad.
        router = make_router("vtsr", Tensor(np_rng.normal(size=(6, 5))), 2,
                             RouterSettings(), 4, RngStream(2))
        u = Tensor(np_rng.normal(size=(7, 6)))
        noise = router.draw_noise(RngStream(3), (7,), 1)
        taped = router.route(u, "train", noise=noise)
        with T.no_grad():
            plain = router.route(u, "train", noise=noise)
        assert taped.gate_weights._parents and not plain.gate_weights._parents
        np.testing.assert_array_equal(taped.gate_weights.data,
                                      plain.gate_weights.data)

    def test_straight_through_gates_match_hard_renormalisation(self):
        n = 4
        u, w = _logit_router(np.array([2.0, 1.0, 0.5, 0.0]))
        net = _const_temp_net(n, 1.5)
        router = self._router(w, net)
        res = router.route(Tensor(u[None, :]), "train", noise=np.full(
            (1, n), ZERO_GUMBEL_UNIFORM))
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
        res = _route_one(router, u, seed=3)
        det = _route_one(_map_router(w, 2), u)
        np.testing.assert_array_equal(res.selection, det.selection)
        assert mc_logit_var(res.logits_sampled)[0] == pytest.approx(0.0, abs=1e-18)

    def test_identical_masks_zero_variance(self):
        n = 4
        u, w = _logit_router(np.ones(n))
        router = self._router(w, 0.5, s=6)
        # every mask keeps every coordinate
        noise = np.ones((1, 6, n), dtype=bool)
        res = router.route(Tensor(u[None, :]), "eval", noise=noise)
        assert mc_logit_var(res.logits_sampled)[0] == pytest.approx(0.0, abs=1e-18)

    def test_two_coordinate_enumeration(self):
        # rate 0.5, u=(1,1), w=I: each logit is 0 or 2 with probability 1/2,
        # independently; the total logit variance is then exactly 2.
        u = np.array([1.0, 1.0])
        w = np.eye(2)
        router = self._router(w, 0.5, s=100_000, k=1)
        res = _route(router, Tensor(u[None, :]), "eval", seed=11)
        samples = res.logits_sampled[0]
        values, counts = np.unique(samples[:, 0], return_counts=True)
        np.testing.assert_array_equal(values, [0.0, 2.0])
        assert abs(counts[0] / samples.shape[0] - 0.5) < 0.01
        assert abs(mc_logit_var(samples[None])[0] - 2.0) / 2.0 < 0.02

    def test_samples_taken_from_noise_shape(self, np_rng):
        # Predictive passes route with one dropout sample per pass, whatever
        # eval_samples says.
        n, b = 4, 3
        router = self._router(np_rng.normal(size=(n, n)), 0.5, s=35)
        noise = np_rng.uniform(size=(b, 1, n)) >= 0.5
        res = router.route(Tensor(np_rng.normal(size=(b, n))), "eval",
                           noise=noise)
        assert res.logits_sampled.shape == (b, 1, n)
        assert res.kl is None and res.signals == {}

    def test_draw_is_the_keep_mask_of_the_uniforms(self):
        router = self._router(np.eye(4), 0.3, s=5)
        mask = router.draw_noise(RngStream(4), (3,), 5)
        assert mask.dtype == np.bool_
        np.testing.assert_array_equal(
            mask, RngStream(4).uniform((3, 5, 4)) >= 0.3)

    def test_float_noise_is_rejected(self):
        router = self._router(np.eye(4), 0.5, s=2)
        with pytest.raises(TypeError, match="boolean keep mask, not float64"):
            router.route(Tensor(np.ones((1, 4))), "eval",
                         noise=np.full((1, 2, 4), 0.9))

    def test_draw_and_eval_route_hold_no_float_sample_array(self):
        # At B=500, S=35, D=32 one float [B, S, D] array takes 4.48 MB.  The
        # draw compares raw words a block at a time and the route drops
        # and projects a block of tokens at a time, so neither holds one.
        b, s, d, n = 500, 35, 32, 8
        router = self._router(RngStream(1).normal((d, n)), 0.1, s=s)
        u = Tensor(RngStream(3).normal((b, d)))
        with T.no_grad():
            tracemalloc.start()
            try:
                noise = router.draw_noise(RngStream(4), (b,), s)
                draw_peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                res = router.route(u, "eval", noise=noise)
                route_peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert res.logits_sampled.shape == (b, s, n)
        assert draw_peak < b * s * d * 8
        assert route_peak < b * s * d * 8

    @pytest.mark.parametrize("shape", [(1, 35, 16), (8, 35, 16), (7, 35, 15),
                                       (7, 16), (7, 0, 16)],
                             ids=["one-row", "extra-row", "short-row",
                                  "no-sample-axis", "no-samples"])
    def test_keep_mask_of_the_wrong_shape_is_rejected(self, shape):
        # A one-row mask used to route every token with one mask.  The row
        # count is the check every router shares (RouterBase.route), the
        # per-token shape the one of the sampled-logit family.
        router = self._router(np.ones((16, 8)), 0.1, s=35)
        u = Tensor(np.ones((7, 16)))
        with pytest.raises(ValueError) as err:
            router.route(u, "eval", noise=np.ones(shape, dtype=bool))
        assert str(err.value) == (
            f"mc_dropout noise {shape} does not fit inputs (7, 16): it must "
            + ("hold one row per token" if shape[0] != 7 else
               "be [B, S, D], S >= 1"))


@pytest.mark.bitwise
class TestKeepMaskRoute:
    """mc_dropout's boolean keep mask gives the bits of the float mask
    formula ``(v >= rate).astype(float) / (1 - rate) * u`` on the same
    uniforms, down to the signs of its zeros."""

    @staticmethod
    def _u(b, d):
        u = RngStream(3).normal((b, d))
        u[0, :4] = [0.0, -0.0, -1e-300, 5e-324]
        u[-1, -2:] = [-0.0, -3.5]
        return u

    @pytest.mark.parametrize("s", [1, 35])
    @pytest.mark.parametrize("rate", [0.0, 0.1, 0.5])
    def test_kept_inputs_match_the_float_formula(self, rate, s):
        b, d = 7, 16
        u = self._u(b, d)
        v = RngStream(4).uniform((b, s, d))
        got = kept_inputs(v >= rate, u, rate)
        want = (v >= rate).astype(float) / (1 - rate) * u[:, None, :]
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
        assert np.signbit(got[0, :, 1]).all()      # -0.0 kept or dropped

    @pytest.mark.parametrize("s", [1, 35])
    @pytest.mark.parametrize("rate", [0.0, 0.1, 0.5])
    def test_route_matches_the_float_formula(self, rate, s):
        _check_route_against_the_float_formula(self._u(7, 16), rate, s)


def _check_route_against_the_float_formula(u, rate, s, n=8):
    """mc_dropout's route on ``u`` [B, D] gives the logits and probs of the
    float mask formula, dropped and projected in one gemm."""
    b, d = u.shape
    router = McDropoutRouter(Tensor(RngStream(1).normal((d, n))), 2,
                             RouterSettings(eval_samples=s, dropout_rate=rate))
    res = router.route(Tensor(u), "eval",
                       noise=router.draw_noise(RngStream(4), (b,), s))
    v = RngStream(4).uniform((b, s, d))
    dropped = (v >= rate).astype(float) / (1 - rate) * u[:, None, :]
    logits = (dropped.reshape(-1, d) @ router.w_r.data).reshape(b, s, n)
    np.testing.assert_array_equal(res.logits_sampled, logits)
    np.testing.assert_array_equal(np.signbit(res.logits_sampled),
                                  np.signbit(logits))
    np.testing.assert_array_equal(res.probs,
                                  T.softmax_last(logits).mean(axis=1))


@pytest.mark.blas_bitwise
class TestBlockedKeepMaskRoute:
    """Past 1,024 rows of dropped inputs the route projects a block of whole
    tokens at a time (at most 29 at S=35) and still gives the one-gemm
    formula's bits, since gemm gives a row the same bits in any row
    block."""

    @pytest.mark.parametrize("b", [1, 28, 29, 30, 59, 500])
    @pytest.mark.parametrize("rate", [0.1, 0.5])
    def test_route_matches_the_float_formula(self, rate, b):
        _check_route_against_the_float_formula(TestKeepMaskRoute._u(b, 16),
                                               rate, 35)


def _c_layout_route(router, u, noise):
    """A route computed on [B, S, N] samples, with the broadcast spread and
    numpy's last-axis softmax and middle-axis mean: the reference whose bits
    the sample-major routes keep.  mc_dropout's ``noise`` is the uniforms
    its keep mask is drawn from, dropped by the float formula.  Returns
    (probs, selection, gates as a tensor, logits_sampled, kl)."""
    b, n = u.shape[0], router.w_r.shape[1]
    if router.variant == "mc_dropout":
        rate = router.settings.dropout_rate
        dropped = (noise >= rate).astype(np.float64) / (1.0 - rate)
        dropped *= u.data[:, None, :]
        logits = (dropped.reshape(-1, u.shape[1]) @ router.w_r.data).reshape(
            b, noise.shape[1], n)
        probs = T.softmax_last(logits).mean(axis=1)
        mask = top_k_mask(probs, router.top_k)
        masked = probs * mask
        return (probs, mask, Tensor(masked / masked.sum(-1, keepdims=True)),
                logits, None)
    dmu, post_scale = router.phi.posterior(u)
    centre = (Tensor((u.data @ router.w_r.data)[:, None, :])
              + dmu.reshape((b, 1, n)))
    if router.phi.full_cov:
        scale = post_scale.reshape((b, 1, n, n))
        kl = kl_fc_per_token(dmu, post_scale)
        logits = centre + (scale * Tensor(noise[:, :, None, :])).sum(axis=3)
    else:
        scale = post_scale.reshape((b, 1, n))
        kl = kl_mf_per_token(dmu, post_scale)
        logits = centre + scale * Tensor(noise)
    probs = T.softmax(logits).mean(axis=1)
    mask = top_k_mask(probs.data, router.top_k)
    masked = probs * Tensor(mask)
    return (probs.data, mask, masked / masked.sum(axis=-1, keepdims=True),
            logits.data, kl)


@pytest.mark.bitwise
class TestSampleMajorRoute:
    """The sampling routers hold their samples as [N, S, B]; every output,
    and in training every inference-net gradient, keeps the bits of the
    [B, S, N] computation."""

    @staticmethod
    def _router(variant, n, samples):
        d = 16
        router = make_router(variant, Tensor(RngStream(1).normal((d, n))), 2,
                             RouterSettings(eval_samples=samples), 8,
                             RngStream(2))
        for name, p in router.phi_items():
            if name != "trunk":          # a posterior away from N(l_det, I)
                p.data *= 300.0
        return router

    @pytest.mark.parametrize("b, s, n", [(1, 35, 8), (3, 1, 8), (3, 35, 4),
                                         (200, 35, 8), (500, 1, 8),
                                         (64, 9, 12)])
    @pytest.mark.parametrize("mode", ["eval", "train"])
    @pytest.mark.parametrize("variant", ["vglr_mf", "vglr_fc", "mc_dropout"])
    def test_route_matches_the_c_layout_reference(self, variant, mode, b, s,
                                                   n):
        router = self._router(variant, n, s)
        u = Tensor(RngStream(3).normal((b, 16)))
        samples = 1 if mode == "train" else s
        noise = router.draw_noise(RngStream(4), (b,), samples)
        res = router.route(u, mode, noise=noise)
        if variant == "mc_dropout":
            noise = RngStream(4).uniform(noise.shape)
        probs, mask, gates, logits, kl = _c_layout_route(router, u, noise)
        assert res.probs.flags.c_contiguous
        assert res.logits_sampled.shape == (b, samples, n)
        for got, want in [(res.probs, probs), (res.selection, mask),
                          (res.gate_weights.data, gates.data),
                          (res.logits_sampled, logits)]:
            np.testing.assert_array_equal(got, want)
        if samples >= 2:
            # A reduction over the sample-major view reads it C-contiguous.
            np.testing.assert_array_equal(mc_logit_var(res.logits_sampled),
                                          mc_logit_var(logits))
        if mode == "eval" or kl is None:
            return
        w = Tensor(RngStream(5).normal((b, n)))
        grads = []
        for g, k in [(res.gate_weights, res.kl), (gates, kl)]:
            ((g * w).sum() + k.mean()).backward()
            grads.append([p.grad for _, p in router.phi_items()])
            for _, p in router.phi_items():
                p.grad = None
        for got, want in zip(*grads):
            np.testing.assert_array_equal(got, want)


class TestFixedTempRoute:
    def _router(self, w, t_global, k=2):
        return TempScaleRouter(Tensor(w), k, RouterSettings(
            global_temperature=t_global))

    def test_low_temperature_is_top_k(self):
        u, w = _logit_router(np.array([2.0, 1.0, 0.0, -1.0]))
        router = self._router(w, 1e-4)
        hits = sum((_route_one(router, u, seed=t).selection[0, :2]
                    == 1).all() for t in range(100))
        assert hits == 100

    def test_gates_renormalised_over_selection(self):
        u, w = _logit_router(np.array([1.0, 0.5, 0.0]))
        res = _route_one(self._router(w, 0.7), u, seed=4)
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
        res = _route(router, Tensor(np.tile(u, (draws, 1))), "eval", seed=99)
        counts = Counter(frozenset(np.nonzero(m)[0].tolist())
                         for m in res.selection)
        assert total_variation(counts, exact, draws) < 0.01


def test_top_k_mask_tie_rule():
    mask = top_k_mask(np.array([[1.0, 1.0, 1.0, 0.5]]), 2)
    np.testing.assert_array_equal(mask[0], [1, 1, 0, 0])


def _sorted_top_k_mask(scores, k):
    """The k first entries of a stable sort of -scores: the selection
    rule."""
    top = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    mask = np.zeros_like(scores)
    mask[np.arange(len(scores))[:, None], top] = 1.0
    return mask


class TestTopKMask:
    """The argmax passes select what a stable sort would, for every finite
    input, and reject a non-finite score."""

    @pytest.mark.parametrize("row, k, want", [
        ([1.0, 1.0, 1.0, 0.5], 3, [1, 1, 1, 0]),
        ([0.5, 2.0, 2.0, 2.0], 2, [0, 1, 1, 0]),
        ([0.0, -0.0, 0.0, -1.0], 2, [1, 1, 0, 0]),
        ([-0.0, 0.0, -1.0, -1.0], 1, [1, 0, 0, 0]),
        ([3.0, 1.0, 2.0, 0.0], 4, [1, 1, 1, 1]),
    ])
    def test_row(self, row, k, want):
        scores = np.array([row, [4.0, 3.0, 2.0, 1.0]])
        mask = top_k_mask(scores, k)
        np.testing.assert_array_equal(mask[0], want)
        np.testing.assert_array_equal(mask, _sorted_top_k_mask(scores, k))

    @pytest.mark.parametrize("row", [
        [-np.inf, 3.0, -np.inf, 1.0],
        [-np.inf] * 4,
        [np.inf, 2.0, np.inf, np.inf],
        [np.nan, 1.0, 2.0, 0.0],
        [np.nan, -np.inf, np.inf, 0.0],
    ])
    @pytest.mark.parametrize("k", [1, 4])
    def test_non_finite_score_is_rejected(self, row, k):
        scores = np.array([[4.0, 3.0, 2.0, 1.0], row])
        with pytest.raises(T.NumericsError, match="top_k_mask"):
            top_k_mask(scores, k)

    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_matches_the_stable_sort(self, n):
        # Rows drawn from a small pool of values: many ties and signed
        # zeros, next to rows of distinct scores.
        rng = np.random.default_rng(n)
        pool = np.array([-1.0, -0.0, 0.0, 0.5, 1.0])
        scores = np.concatenate([pool[rng.integers(0, len(pool), (300, n))],
                                 rng.normal(size=(100, n))])
        for k in range(n + 1):
            mask = top_k_mask(scores, k)
            np.testing.assert_array_equal(mask, _sorted_top_k_mask(scores, k))
            assert (mask.sum(axis=1) == k).all()

    def test_leaves_the_scores_alone(self):
        scores = np.array([[1.0, 2.0, -0.0, 2.0]])
        top_k_mask(scores, 2)
        np.testing.assert_array_equal(scores, np.array([[1.0, 2.0, -0.0, 2.0]]))
        assert np.signbit(scores[0, 2])

    def test_no_rows(self):
        assert top_k_mask(np.zeros((0, 8)), 2).shape == (0, 8)


def test_every_route_takes_the_base_parameters():
    # A layer calls every router alike, so the one route is the base's: it
    # checks the mode and the noise rows and fills in the encoding once, and
    # a variant supplies only its ``_select``.
    routes = [c for c in vars(R).values()
              if isinstance(c, type) and "route" in vars(c)]
    assert routes == [RouterBase]
    assert [(p.name, p.default) for p in
            inspect.signature(RouterBase.route).parameters.values()] == [
        ("self", inspect.Parameter.empty), ("u", inspect.Parameter.empty),
        ("mode", inspect.Parameter.empty), ("noise", None),
        ("encoding", None)]
    for variant in R.VARIANTS:
        router = make_router(variant, Tensor(np.ones((4, 3))), 1,
                             RouterSettings(), 2, RngStream(0))
        assert type(router).route is RouterBase.route, variant
        assert list(inspect.signature(router._select).parameters) == [
            "u", "noise", "encoding"], variant


@pytest.mark.parametrize("variant", R.VARIANTS[1:])
@pytest.mark.parametrize("rows", [1, 6], ids=["one-row", "extra-row"])
def test_noise_of_another_row_count_is_rejected(variant, rows):
    # temp_scale, vglr and vtsr used to route every token of a batch with a
    # one-row noise array's single draw.
    router = make_router(variant, Tensor(RngStream(1).normal((4, 3))), 1,
                         RouterSettings(eval_samples=2), 2, RngStream(0))
    u = Tensor(RngStream(2).normal((5, 4)))
    noise = router.draw_noise(RngStream(3), (rows,), 2)
    for mode in ("train", "eval"):
        with pytest.raises(ValueError) as err:
            router.route(u, mode, noise=noise)
        assert str(err.value) == (
            f"{variant} noise {noise.shape} does not fit inputs (5, 4): it "
            "must hold one row per token")



# The noise each family's rule reads per token: [N] uniforms, or [S, K]
# with K the input width (mc_dropout) or the expert count (vglr).
FAMILIES = {"temp_scale": (R._GumbelTopKRouter, "[B, N]"),
            "vtsr": (R._GumbelTopKRouter, "[B, N]"),
            "mc_dropout": (R._SampledLogitRouter, "[B, S, D], S >= 1"),
            "vglr_mf": (R._SampledLogitRouter, "[B, S, N], S >= 1"),
            "vglr_fc": (R._SampledLogitRouter, "[B, S, N], S >= 1")}


def test_two_selection_rules_for_the_stochastic_variants():
    # One ``_select`` per family, so an eval rule is written once for
    # temp_scale and vtsr and once for mc_dropout and vglr.
    selects = sorted(name for name, c in vars(R).items()
                     if isinstance(c, type) and "_select" in vars(c))
    assert selects == ["MapRouter", "_GumbelTopKRouter", "_SampledLogitRouter"]
    assert sorted(FAMILIES) == sorted(R.VARIANTS[1:])
    for variant, (family, _) in FAMILIES.items():
        router = make_router(variant, Tensor(np.ones((4, 3))), 1,
                             RouterSettings(), 2, RngStream(0))
        assert isinstance(router, family), variant
        assert type(router)._select is family._select, variant
    for klass in (TempScaleRouter, VtsrRouter):
        assert "draw_noise" not in vars(klass)
    assert not hasattr(R, "_gumbel_noise")


@pytest.mark.parametrize("variant, shape", [
    ("temp_scale", (5, 1)), ("vtsr", (5, 1)), ("temp_scale", (5, 2, 3)),
    ("mc_dropout", (5, 6, 1)), ("vglr_mf", (5, 6, 1)), ("vglr_fc", (5, 6, 1)),
    ("vglr_mf", (5, 3)), ("vglr_fc", (5, 0, 3))],
    ids=["temp_scale-one-uniform", "vtsr-one-uniform", "temp_scale-samples",
         "mc_dropout-one-draw", "vglr_mf-one-draw", "vglr_fc-one-draw",
         "vglr_mf-no-sample-axis", "vglr_fc-no-samples"])
def test_noise_that_only_broadcasts_is_rejected(variant, shape):
    # vglr routed [B, S, 1] normals with one draw per sample shared by every
    # expert (vglr_fc read only L's first column), and temp_scale and vtsr
    # routed [B, 1] uniforms with one Gumbel per token, i.e. the top-k of
    # the scaled logits.
    router = make_router(variant, Tensor(RngStream(1).normal((4, 3))), 1,
                         RouterSettings(eval_samples=6), 2, RngStream(0))
    u = Tensor(RngStream(2).normal((5, 4)))
    dtype = bool if variant == "mc_dropout" else np.float64
    noise = np.full(shape, 0.5, dtype=dtype)
    for mode in ("train", "eval"):
        with pytest.raises(ValueError) as err:
            router.route(u, mode, noise=noise)
        assert str(err.value) == (
            f"{variant} noise {shape} does not fit inputs (5, 4): it must be "
            + FAMILIES[variant][1])
