import math

import numpy as np
import pytest

from vroute import tensor as T
from vroute.rng import RngStream, gumbel_from_uniform
from vroute.tensor import NumericsError, Tensor

from conftest import assert_grad_close, central_difference


class TestMatmul:
    def test_identity(self, np_rng):
        a = np_rng.normal(size=(2, 2))
        out = T.matmul(Tensor(np.eye(2)), Tensor(a))
        np.testing.assert_array_equal(out.data, a)

    def test_hand_product(self):
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_grad_of_sum_against_closed_form_and_fd(self, np_rng):
        a = Tensor(np_rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(np_rng.normal(size=(4, 2)), requires_grad=True)
        loss = T.matmul(a, b).sum()
        loss.backward()
        # d sum(ab) / da = ones @ b^T
        np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b.data.T,
                                   atol=1e-12)
        fd = central_difference(lambda: (a.data @ b.data).sum(), a)
        assert_grad_close(a.grad, fd)


class TestSoftmax:
    def test_symmetric_pair(self):
        out = T.softmax(Tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-15)

    def test_shift_invariance(self, np_rng):
        for x in (-7.3, 0.0, 123.4):
            out = T.softmax(Tensor([x, x, x, x]))
            np.testing.assert_allclose(out.data, [0.25] * 4, atol=1e-15)

    def test_matches_direct_formula(self):
        x = np.array([1.0, 2.0, 3.0])
        expected = np.exp(x) / np.exp(x).sum()
        out = T.softmax(Tensor(x))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_rows_sum_to_one(self, np_rng):
        x = np_rng.normal(scale=30.0, size=(40, 7))
        out = T.softmax(Tensor(x))
        assert out.data.min() >= 0.0
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)

    def test_gradient(self, np_rng):
        x = Tensor(np_rng.uniform(-2, 2, size=(3, 5)), requires_grad=True)
        w = np_rng.normal(size=(3, 5))
        (T.softmax(x) * Tensor(w)).sum().backward()
        fd = central_difference(
            lambda: (np.exp(x.data - x.data.max(1, keepdims=True))
                     / np.exp(x.data - x.data.max(1, keepdims=True)).sum(1, keepdims=True)
                     * w).sum(), x)
        assert_grad_close(x.grad, fd)


class TestSampling:
    def test_normal_determinism(self):
        a = RngStream(5, 9).normal((3, 4))
        b = RngStream(5, 9).normal((3, 4))
        np.testing.assert_array_equal(a, b)

    def test_normal_moments(self):
        draws = RngStream(7).normal((1_000_000,))
        assert abs(draws.mean()) < 0.01
        assert abs(draws.var() - 1.0) < 0.02

    def test_gumbel_fixed_point(self):
        assert gumbel_from_uniform(np.array(1.0 / math.e)) == pytest.approx(0.0, abs=1e-12)

    def test_gumbel_mean_is_euler_mascheroni(self):
        draws = gumbel_from_uniform(RngStream(11).uniform((1_000_000,)))
        assert abs(draws.mean() - 0.5772156649) < 0.01

    def test_gumbel_determinism(self):
        a = gumbel_from_uniform(RngStream(3, 1).uniform((64,)))
        b = gumbel_from_uniform(RngStream(3, 1).uniform((64,)))
        np.testing.assert_array_equal(a, b)


class TestBackward:
    def test_sum_gives_ones(self, np_rng):
        x = Tensor(np_rng.normal(size=(2, 3)), requires_grad=True)
        x.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_square_gives_two_x(self, np_rng):
        x = Tensor(np_rng.normal(size=(4,)), requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-12)

    def test_mlp_cross_entropy_matches_finite_differences(self, np_rng):
        w1 = Tensor(np_rng.uniform(-1, 1, size=(6, 10)), requires_grad=True)
        w2 = Tensor(np_rng.uniform(-1, 1, size=(10, 4)), requires_grad=True)
        x = np_rng.uniform(-2, 2, size=(8, 6))
        y = np_rng.integers(0, 4, size=8)

        def loss_fn():
            h = T.relu(T.matmul(Tensor(x), w1))
            return T.cross_entropy(T.matmul(h, w2), y)

        loss = loss_fn()
        loss.backward()
        for w in (w1, w2):
            fd = central_difference(lambda: loss_fn().item(), w)
            assert_grad_close(w.grad, fd)

    def test_second_backward_is_an_error(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = x.sum()
        loss.backward()
        with pytest.raises(NumericsError):
            loss.backward()

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(NumericsError):
            (x * x).backward()


@pytest.mark.parametrize("name,op,np_op", [
    ("add", lambda a, b: a + b, lambda a, b: a + b),
    ("sub", lambda a, b: a - b, lambda a, b: a - b),
    ("mul", lambda a, b: a * b, lambda a, b: a * b),
    ("div", lambda a, b: a / b, lambda a, b: a / b),
])
def test_elementwise_gradients(name, op, np_op, np_rng):
    a = Tensor(np_rng.uniform(-2, 2, size=(3, 4)), requires_grad=True)
    b = Tensor(np_rng.uniform(0.5, 2, size=(3, 4)), requires_grad=True)
    w = np_rng.normal(size=(3, 4))
    (op(a, b) * Tensor(w)).sum().backward()
    for t in (a, b):
        fd = central_difference(lambda: (np_op(a.data, b.data) * w).sum(), t)
        assert_grad_close(t.grad, fd)


@pytest.mark.parametrize("name,op,np_op", [
    ("relu", T.relu, lambda x: np.maximum(x, 0)),
    ("exp", T.exp, np.exp),
    ("log", T.log, np.log),
    ("softplus", T.softplus, lambda x: np.logaddexp(0, x)),
])
def test_unary_gradients(name, op, np_op, np_rng):
    # positive inputs keep log in-domain and keep relu away from its kink
    x = Tensor(np_rng.uniform(0.1, 2, size=(3, 4)), requires_grad=True)
    w = np_rng.normal(size=(3, 4))
    (op(x) * Tensor(w)).sum().backward()
    fd = central_difference(lambda: (np_op(x.data) * w).sum(), x)
    assert_grad_close(x.grad, fd)


def test_gather_forward_and_gradient(np_rng):
    x = Tensor(np_rng.normal(size=(4, 6)), requires_grad=True)
    idx = [5, 1, 1]
    out = T.gather(x, idx, axis=1)
    np.testing.assert_array_equal(out.data, x.data[:, idx])
    out.sum().backward()
    expected = np.zeros((4, 6))
    for j in idx:
        expected[:, j] += 1.0
    np.testing.assert_array_equal(x.grad, expected)


def test_scatter_places_columns_and_is_the_adjoint_of_gather(np_rng):
    x = Tensor(np_rng.normal(size=(4, 3)), requires_grad=True)
    idx = [5, 0, 2]
    out = T.scatter(x, idx, 6)
    expected = np.zeros((4, 6))
    expected[:, idx] = x.data
    np.testing.assert_array_equal(out.data, expected)
    w = np_rng.normal(size=(4, 6))
    (out * Tensor(w)).sum().backward()
    np.testing.assert_array_equal(x.grad, T.gather(Tensor(w), idx, axis=1).data)


def _mix_inputs(np_rng, b=3, d=4, h=5, n=3):
    """Expert-mix operands whose hidden pre-activations all sit at least 0.1
    away from the ReLU kink, so finite differences see a smooth function."""
    while True:
        u = np_rng.normal(size=(b, d))
        w1 = np_rng.normal(size=(n, d, h))
        if np.abs(np.einsum("bd,ndh->nbh", u, w1)).min() > 0.1:
            break
    gates = np_rng.uniform(0.1, 1.0, size=(b, n))
    w2 = np_rng.normal(size=(n, h, d))
    return [Tensor(a, requires_grad=True) for a in (u, gates, w1, w2)]


def _mix_reference(u, gates, w1, w2):
    return sum(gates[:, j:j + 1] * (np.maximum(u @ w1[j], 0.0) @ w2[j])
               for j in range(w1.shape[0]))


class TestExpertMix:
    def test_forward_is_the_gated_sum_of_experts(self, np_rng):
        ops = _mix_inputs(np_rng)
        out = T.expert_mix(*ops)
        np.testing.assert_allclose(out.data, _mix_reference(*(t.data for t in ops)),
                                   atol=1e-12)

    def test_gradients_match_finite_differences(self, np_rng):
        ops = _mix_inputs(np_rng)
        w = np_rng.normal(size=(3, 4))
        (T.expert_mix(*ops) * Tensor(w)).sum().backward()
        for t in ops:
            fd = central_difference(
                lambda: (_mix_reference(*(o.data for o in ops)) * w).sum(), t)
            assert_grad_close(t.grad, fd)

    def test_frozen_weights_get_no_gradient(self, np_rng):
        u, gates, w1, w2 = ops = _mix_inputs(np_rng)
        T.expert_mix(*ops).sum().backward()
        grads = [t.grad for t in ops]
        for t in ops:
            t.grad = None
        w1.requires_grad = w2.requires_grad = False
        out = T.expert_mix(*ops)
        slots = out._backward(np.ones_like(out.data))
        assert slots[2] is None and slots[3] is None
        np.testing.assert_array_equal(slots[0], grads[0])
        np.testing.assert_array_equal(slots[1], grads[1])
        out.sum().backward()
        assert w1.grad is None and w2.grad is None
        np.testing.assert_array_equal(u.grad, grads[0])
        np.testing.assert_array_equal(gates.grad, grads[1])
        # An input with nothing upstream to train gets no gradient either.
        u.requires_grad = False
        out = T.expert_mix(*ops)
        slots = out._backward(np.ones_like(out.data))
        assert slots[0] is None and slots[2] is None and slots[3] is None
        np.testing.assert_array_equal(slots[1], grads[1])

    def test_shape_mismatch(self, np_rng):
        u, gates, w1, w2 = _mix_inputs(np_rng)
        with pytest.raises(ValueError):
            T.expert_mix(u, gates, w1, w1)


def test_broadcast_gradients(np_rng):
    a = Tensor(np_rng.normal(size=(5, 3)), requires_grad=True)
    b = Tensor(np_rng.normal(size=(3,)), requires_grad=True)
    (a * b).sum().backward()
    np.testing.assert_allclose(b.grad, a.data.sum(axis=0), atol=1e-12)
    np.testing.assert_allclose(a.grad, np.tile(b.data, (5, 1)), atol=1e-12)


class TestFiniteGuard:
    def test_overflowing_exp_aborts(self):
        with pytest.raises(NumericsError):
            T.exp(Tensor([1000.0]))

    def test_log_zero_aborts(self):
        with pytest.raises(NumericsError):
            T.log(Tensor([0.0]))

    def test_nan_construction_rejected(self):
        with pytest.raises(NumericsError):
            Tensor([float("nan")])


def test_no_grad_blocks_tape():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with T.no_grad():
        out = (x * x).sum()
    assert out._parents == ()
    out.backward()
    assert x.grad is None
