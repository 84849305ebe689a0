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

    @pytest.mark.parametrize("keepdims", [False, True])
    def test_mean_backward_divides_by_the_count(self, keepdims, np_rng):
        x = Tensor(np_rng.normal(size=(40, 7)), requires_grad=True)
        out = T.tmean(x, axis=1, keepdims=keepdims)
        g = np_rng.normal(size=out.shape)
        (got,) = out._backward(g)
        want = np.broadcast_to((g if keepdims else g[:, None]) / 7, x.shape)
        assert _same_bits(got, want)
        # Multiplying by the reciprocal would give other bits.
        assert not _same_bits(got, np.broadcast_to(
            (g if keepdims else g[:, None]) * (1 / 7), x.shape))

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


@pytest.mark.bitwise
class TestTapeEngine:
    """Backward bookkeeping: the order a node's gradients are added in, and
    gradients only for the operands the tape keeps."""

    def test_multi_consumer_gradient_bits(self):
        # h has four consumers, whose gradients 1e16, 1, -1e16 and 1/3 sum
        # to 0, 1/3, 1, 4/3 or 2 depending on the order they are added in.
        # The pin holds the depth-first walk's order; reordering the walk
        # moves these bits.
        x = Tensor([[1.0, 2.0, -3.0], [0.5, -0.25, 4.0]], requires_grad=True)
        h = x * 3.0
        loss = ((h * 1e16).sum() + (h * 1.0).sum() + (h * -1e16).sum()
                + (h / 3.0).sum())
        loss.backward()
        assert [v.hex() for v in x.grad.ravel()] == ["0x1.0000000000000p+0"] * 6

    _BINARY = {
        "add": (lambda a, b, g: (g, g.sum(axis=0))),
        "sub": (lambda a, b, g: (g, (-g).sum(axis=0))),
        "mul": (lambda a, b, g: (g * b, (g * a).sum(axis=0))),
        "div": (lambda a, b, g: (g / b, (-g * a / (b * b)).sum(axis=0))),
        "matmul": (lambda a, b, g: (g @ b.T, a.T @ g)),
    }

    @pytest.mark.parametrize("kept", ["left", "right", "both"])
    @pytest.mark.parametrize("name", list(_BINARY))
    def test_binary_op_skips_an_untracked_operand(self, name, kept, np_rng):
        a = Tensor(np_rng.uniform(0.5, 2.0, size=(4, 3)),
                   requires_grad=kept in ("left", "both"))
        shape_b = (3, 2) if name == "matmul" else (3,)
        b = Tensor(np_rng.uniform(0.5, 2.0, size=shape_b),
                   requires_grad=kept in ("right", "both"))
        out = getattr(T, name)(a, b)
        g = np_rng.normal(size=out.shape)
        got_a, got_b = out._backward(g)
        want_a, want_b = self._BINARY[name](a.data, b.data, g)
        if kept == "right":
            assert got_a is None
        else:
            assert _same_bits(got_a, want_a)
        if kept == "left":
            assert got_b is None
        else:
            assert _same_bits(got_b, want_b)

    def test_expert_mix_skips_constant_gates(self, np_rng):
        u, gates, w1, w2 = _mix_inputs(np_rng)
        out = T.expert_mix(u, Tensor(gates.data), w1, w2)
        assert out._backward(np_rng.normal(size=out.shape))[1] is None

    def test_recording_needs_a_tracked_operand(self):
        const, leaf = Tensor([1.0]), Tensor([1.0], requires_grad=True)
        assert (const * 2.0)._backward is None
        assert (const * leaf)._parents == (const, leaf)
        assert (leaf * const * const)._backward is not None


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
    # The forward reads any columns; the backward takes increasing ones.
    x = Tensor(np_rng.normal(size=(4, 6)), requires_grad=True)
    np.testing.assert_array_equal(T.gather(x, [5, 1, 1]).data,
                                  x.data[:, [5, 1, 1]])
    idx = [1, 2, 5]
    out = T.gather(x, idx)
    np.testing.assert_array_equal(out.data, x.data[:, idx])
    out.sum().backward()
    expected = np.zeros((4, 6))
    expected[:, idx] = 1.0
    np.testing.assert_array_equal(x.grad, expected)


def _add_at_gather_grad(g, shape, idx):
    """The gather backward as ``np.add.at`` into the columns of zeros."""
    out = np.zeros(shape)
    np.add.at(np.moveaxis(out, 1, 0), np.asarray(idx, dtype=np.intp),
              np.moveaxis(g, 1, 0))
    return out


@pytest.mark.bitwise
class TestGatherBackward:
    """Strictly increasing indices place ``g + 0.0`` by assignment, which
    gives ``np.add.at``'s bits; the backward rejects any other indices."""

    @pytest.mark.parametrize("idx", [[0, 2, 5], [4], [0, 1, 2, 3, 4, 5], []],
                             ids=["increasing", "one", "all", "none"])
    def test_matches_add_at_bit_for_bit(self, idx, np_rng):
        x = Tensor(np_rng.normal(size=(4, 6)), requires_grad=True)
        out = T.gather(x, idx)
        g = np_rng.normal(size=out.shape)
        g.reshape(-1)[::2] = -0.0
        (got,) = out._backward(g)
        want = _add_at_gather_grad(g, x.shape, idx)
        assert _same_bits(got, want)

    @pytest.mark.parametrize("idx", [[5, 1, 3], [5, 1, 1], [-1, 0], [2, -3]],
                             ids=["unsorted", "repeated", "negative",
                                  "aliased"])
    def test_other_indices_are_rejected(self, idx, np_rng):
        x = Tensor(np_rng.normal(size=(4, 6)), requires_grad=True)
        out = T.gather(x, idx)
        with pytest.raises(ValueError, match="strictly increasing indices"):
            out._backward(np_rng.normal(size=out.shape))

    def test_upstream_negative_zero_becomes_positive_zero(self):
        x = Tensor(np.ones((2, 4)), requires_grad=True)
        out = T.gather(x, [1, 3])
        (got,) = out._backward(np.full((2, 2), -0.0))
        assert not np.signbit(got).any()
        assert _same_bits(got, _add_at_gather_grad(
            np.full((2, 2), -0.0), (2, 4), [1, 3]))

    def test_production_gathers_are_strictly_increasing(self):
        # kl_fc's diagonal and build_cholesky's two gathers.
        from vroute.routers import _triangle
        for n in (1, 2, 8):
            diag, _, off, _, _ = _triangle(n)
            for idx in (diag, off, np.arange(n) * n + np.arange(n)):
                assert idx.size == 0 or (idx[0] >= 0
                                         and np.all(idx[1:] > idx[:-1]))


def test_scatter_places_columns_and_is_the_adjoint_of_gather(np_rng):
    x = Tensor(np_rng.normal(size=(4, 3)), requires_grad=True)
    idx = [5, 0, 2]
    out = T.scatter(x, idx, 6)
    expected = np.zeros((4, 6))
    expected[:, idx] = x.data
    np.testing.assert_array_equal(out.data, expected)
    w = np_rng.normal(size=(4, 6))
    (out * Tensor(w)).sum().backward()
    np.testing.assert_array_equal(x.grad, T.gather(Tensor(w), idx).data)


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
    """Dense oracle: every expert on every row, added in index order."""
    return sum(gates[:, j:j + 1] * (np.maximum(u @ w1[j], 0.0) @ w2[j])
               for j in range(w1.shape[0]))


@pytest.mark.blas_bitwise
class TestExpertMix:
    """The taped ``expert_mix``: the gated sum of experts, its gradients,
    and a zero gate that skips nothing, with the dense loop's bits."""

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

    def test_taped_op_runs_every_expert_on_every_row(self, np_rng):
        # Zero gates skip nothing on the tape: the output has the dense
        # loop's bits, and each expert's gate gradient is its output's dot
        # with the upstream gradient, unselected experts included.
        u, gates, w1, w2 = ops = _mix_inputs(np_rng, b=6, n=4)
        gates.data[:, :2] = 0.0
        w = np_rng.normal(size=(6, 4))
        out = T.expert_mix(*ops)
        np.testing.assert_array_equal(out.data, _mix_reference(*(t.data for t in ops)))
        (out * Tensor(w)).sum().backward()
        for j in range(4):
            y = np.maximum(u.data @ w1.data[j], 0.0) @ w2.data[j]
            np.testing.assert_array_equal(gates.grad[:, j], (w * y).sum(axis=1))
        assert gates.grad[:, :2].any()
        for t in (u, w1, w2):
            fd = central_difference(
                lambda: (_mix_reference(*(o.data for o in ops)) * w).sum(), t)
            assert_grad_close(t.grad, fd)


def _top_k_gates(rng, b, n, k, logits=None):
    """Softmax gates over each row's k largest logits (normal draws unless
    given), zero elsewhere."""
    if logits is None:
        logits = rng.normal(size=(b, n))
    keep = np.argsort(-logits, axis=1)[:, :k]
    mask = np.zeros((b, n), dtype=bool)
    np.put_along_axis(mask, keep, True, axis=1)
    e = np.where(mask, np.exp(logits), 0.0)
    return e / e.sum(axis=1, keepdims=True)


def _skewed_logits(rng, b, n=8):
    """Logits whose top-1 and top-2 loads look trained: no row selects
    expert 3, only row b // 2 selects expert 0, and every other row ranks
    expert 5 first."""
    logits = rng.normal(size=(b, n))
    low, high = logits.min(axis=1), logits.max(axis=1)
    logits[:, 0] = logits[:, 3] = low - 1.0
    logits[:, 5] = high + 1.0
    logits[b // 2, 0] = high[b // 2] + 2.0
    return logits


def _untaped_mix(u, gates, w1, w2):
    with T.no_grad():
        return T.expert_mix(Tensor(u), Tensor(gates, requires_grad=True),
                            Tensor(w1, requires_grad=True),
                            Tensor(w2, requires_grad=True)).data


def _model_sized_experts(rng, b, d=32, h=32, n=8):
    return (rng.normal(size=(b, d)), rng.normal(size=(n, d, h)) / math.sqrt(d),
            rng.normal(size=(n, h, d)) / math.sqrt(h))


@pytest.mark.blas_bitwise
class TestExpertDispatch:
    """Untaped ``expert_mix`` runs each expert only on its selecting rows and
    must still give the dense loop's bits.  That assumes gemm gives a row
    the same bits in any row subset, however BLAS splits the work across
    threads."""

    @pytest.mark.parametrize("b", [1, 2, 3, 64, 500])
    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_matches_dense_loop_bit_for_bit(self, b, k, np_rng):
        u, w1, w2 = _model_sized_experts(np_rng, b)
        gates = _top_k_gates(np_rng, b, 8, k)
        np.testing.assert_array_equal(_untaped_mix(u, gates, w1, w2),
                                      _mix_reference(u, gates, w1, w2))

    @pytest.mark.parametrize("b", [2, 3, 64, 500])
    def test_expert_with_one_selecting_row(self, b, np_rng):
        # A one-row matmul would go to gemv, whose last bits differ.
        u, w1, w2 = _model_sized_experts(np_rng, b)
        for trial in range(10):
            gates = _top_k_gates(np_rng, b, 8, 2)
            gates[:, 0] = 0.0
            gates[trial % b, 0] = 0.5
            np.testing.assert_array_equal(_untaped_mix(u, gates, w1, w2),
                                          _mix_reference(u, gates, w1, w2))

    def test_unselected_expert_and_zero_selected_gate(self, np_rng):
        u, w1, w2 = _model_sized_experts(np_rng, 64)
        gates = _top_k_gates(np_rng, 64, 8, 2)
        gates[:, 3] = 0.0            # no row selects expert 3
        gates[::5, 1] = 0.0          # a selected gate that is exactly 0
        expected = _mix_reference(u, gates, w1, w2)
        np.testing.assert_array_equal(_untaped_mix(u, gates, w1, w2), expected)
        # The unselected expert never runs: weights that would overflow
        # change nothing.
        w1[3] = 1e308
        np.testing.assert_array_equal(_untaped_mix(u, gates, w1, w2), expected)

    @pytest.mark.parametrize("b", [3, 64, 500])
    @pytest.mark.parametrize("k", [1, 2])
    def test_skewed_loads(self, b, k, np_rng):
        # Trained loads: one expert with no rows, one with exactly one row
        # and one with more than half the rows.
        u, w1, w2 = _model_sized_experts(np_rng, b)
        gates = _top_k_gates(np_rng, b, 8, k, _skewed_logits(np_rng, b))
        loads = np.count_nonzero(gates, axis=0)
        assert loads[3] == 0 and loads[0] == 1 and loads[5] > b / 2
        np.testing.assert_array_equal(_untaped_mix(u, gates, w1, w2),
                                      _mix_reference(u, gates, w1, w2))


def _loop_mix(u, gates, w1, w2):
    """The per-expert taped forward that the stacked products replaced: the
    mixed output and each expert's (hidden, output) pair."""
    acts, data = [], np.zeros((u.shape[0], w2.shape[2]))
    for j in range(w1.shape[0]):
        hid = np.maximum(u @ w1[j], 0.0)
        y = hid @ w2[j]
        data += gates[:, j:j + 1] * y
        acts.append((hid, y))
    return data, acts


def _loop_mix_backward(g, u, gates, w1, w2, acts, want_u, want_w1, want_w2):
    """The per-expert backward that the stacked products replaced."""
    gu = np.zeros_like(u) if want_u else None
    gg = np.empty_like(gates)
    gw1 = np.empty_like(w1) if want_w1 else None
    gw2 = np.empty_like(w2) if want_w2 else None
    for j, (hid, y) in enumerate(acts):
        gg[:, j] = (g * y).sum(axis=1)
        gy = g * gates[:, j:j + 1]
        if want_w2:
            gw2[j] = hid.T @ gy
        if want_u or want_w1:
            gpre = (gy @ w2[j].T) * (hid > 0.0)
            if want_w1:
                gw1[j] = u.T @ gpre
            if want_u:
                gu += gpre @ w1[j].T
    return gu, gg, gw1, gw2


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.blas_bitwise
class TestStackedExpertMix:
    """The taped ``expert_mix`` stacks each weight's product over the expert
    axis, which makes the same per-expert gemm calls as a loop, and the
    stored-output read takes the selected outputs by index; both must give
    the per-expert loop's bits."""

    # Which of (u, gates, w1, w2) the tape tracks: stage 1 trains everything;
    # a stage-2 block after the first stochastic one trains u's upstream and
    # the gates; the first stochastic block trains only the gates.
    TRACKING = {"stage1": (True, True, True, True),
                "stage2-later-block": (True, True, False, False),
                "stage2-first-block": (False, True, False, False)}

    @pytest.mark.parametrize("b", [1, 2, 16, 64])
    @pytest.mark.parametrize("n", [1, 8])
    @pytest.mark.parametrize("tracking", list(TRACKING))
    def test_forward_and_gradients_match_the_loop(self, b, n, tracking,
                                                  np_rng):
        u, w1, w2 = _model_sized_experts(np_rng, b, n=n)
        gates = _top_k_gates(np_rng, b, n, min(2, n))
        flags = self.TRACKING[tracking]
        ops = [Tensor(a, requires_grad=f)
               for a, f in zip((u, gates, w1, w2), flags)]
        out = T.expert_mix(*ops)
        want, acts = _loop_mix(u, gates, w1, w2)
        assert _same_bits(out.data, want)
        g = np_rng.normal(size=out.shape)
        slots = out._backward(g)
        oracle = _loop_mix_backward(g, u, gates, w1, w2, acts,
                                    flags[0], flags[2], flags[3])
        for got, want_slot, flag in zip(slots, oracle, flags):
            if flag:
                assert _same_bits(got, want_slot)
                assert got.flags.c_contiguous
            else:
                assert got is None

    @staticmethod
    def _stored_read(rng, b):
        """Gates with a zero selected gate, an expert that one row selects
        and one that no row selects; the experts' stored outputs; and the
        read of them by selection."""
        u, w1, w2 = _model_sized_experts(rng, b)
        gates = _top_k_gates(rng, b, 8, 2, _skewed_logits(rng, b))
        selection = (gates != 0.0).astype(np.float64)
        gates[::5, 5] = 0.0            # a selected gate that is exactly 0
        outputs = T.expert_outputs(u, w1, w2)
        with T.no_grad():
            got = T.expert_mix(Tensor(u), Tensor(gates), Tensor(w1),
                               Tensor(w2), outputs=outputs,
                               selection=selection).data
        return (u, gates, w1, w2), outputs, got

    @pytest.mark.parametrize("b", [1, 3, 64, 500])
    def test_stored_outputs_match_the_row_indexed_read(self, b, np_rng):
        # The read it replaced: each expert's selecting rows, added in order.
        (_, gates, _, _), outputs, got = self._stored_read(np_rng, b)
        want = np.zeros_like(got)
        for j in range(8):
            rows = np.flatnonzero(gates[:, j])
            want[rows] += gates[rows, j:j + 1] * outputs[j, rows]
        assert _same_bits(got, want)

    @pytest.mark.parametrize("b", [1, 3, 64, 500])
    def test_stored_outputs_match_dispatch(self, b, np_rng):
        ops, _, got = self._stored_read(np_rng, b)
        assert _same_bits(got, _untaped_mix(*ops))

    def test_stored_outputs_are_the_taped_outputs(self, np_rng):
        u, w1, w2 = _model_sized_experts(np_rng, 64)
        _, acts = _loop_mix(u, np.ones((64, 8)), w1, w2)
        assert _same_bits(T.expert_outputs(u, w1, w2),
                          np.stack([y for _, y in acts]))


@pytest.mark.bitwise
class TestSelectedExpertRead:
    """The stored-output read of untaped ``expert_mix`` takes each row's k
    selected outputs by index; it must give the bits, signbits included,
    of the dense gated sum over all N experts added in index order."""

    @staticmethod
    def _operands(rng, b, k, n=8, d=32):
        """Top-k gates with a zero gate inside the selection of every fourth
        row, their selection, and outputs holding -0.0 entries."""
        gates = _top_k_gates(rng, b, n, k)
        selection = (gates != 0.0).astype(np.float64)
        rows = np.arange(0, b, 4)
        gates[rows, selection[rows].argmax(axis=1)] = 0.0
        outputs = rng.normal(size=(n, b, d))
        outputs[:, ::2, ::3] = -0.0
        outputs[1::3, 1::5] = -0.0
        return gates, selection, outputs

    @staticmethod
    def _read(gates, selection, outputs):
        n, b, d = outputs.shape
        with T.no_grad():
            return T.expert_mix(np.zeros((b, d)), gates,
                                np.zeros((n, d, 4)), np.zeros((n, 4, d)),
                                outputs=outputs, selection=selection)

    @pytest.mark.parametrize("b", [0, 1, 2, 3, 64, 500])
    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_matches_the_dense_gated_sum(self, b, k, np_rng):
        gates, selection, outputs = self._operands(np_rng, b, k)
        got = self._read(gates, selection, outputs).data
        want = T._sum_in_order(gates.T[:, :, None] * outputs)
        assert got.shape == want.shape == (b, 32)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_nan_gate_raises(self, np_rng):
        gates, selection, outputs = self._operands(np_rng, 5, 2)
        gates = Tensor(gates)       # a finite tensor, then a NaN selected gate
        gates.data[2, np.flatnonzero(selection[2])[1]] = np.nan
        with pytest.raises(NumericsError, match="expert_mix"):
            self._read(gates, selection, outputs)


def _reduction_operand(rng, shape):
    """Values spanning many magnitudes, so that a sum's bits depend on the
    order of its additions, with tied values and signed zeros mixed in."""
    a = rng.normal(size=shape) * np.exp(rng.normal(scale=8.0, size=shape))
    flat = a.reshape(-1, shape[-1])
    flat[::3, ::2] = np.round(flat[::3, ::2])    # ties, most of them 0 or +-1
    flat[1::4, 1::3] = -0.0
    flat[2::5] = -0.0                            # whole rows of -0.0
    return a


@pytest.mark.bitwise
class TestExpertAxisReductions:
    """``max_last``/``sum_last`` read the last axis column by column,
    ``spread`` forms the column products of a lower-triangular
    matrix-vector product, and ``softmax_mean`` reduces sample-major
    [N, S, B] logits over their leading and middle axes; all must give the
    bits of the numpy computations they replace."""

    WIDTHS = list(range(1, 18)) + [32, 64, 128, 129, 300]
    # Fewer than 128 rows keep numpy's reduction; 128 or more read columns.
    LEADS = [(7,), (130,), (5, 3), (9, 15), (2, 3, 4), (2, 5, 13)]

    @pytest.mark.parametrize("shape", [(8, 1, 64), (8, 35, 500), (8, 1, 1),
                                       (1, 3, 5), (2, 4, 7), (12, 2, 130)])
    def test_max_lead_keeps_the_zero_signs_of_a_maximum_chain(self, shape,
                                                              np_rng):
        # softmax_mean's max over the experts: one leading-axis reduction,
        # which must give a chain of np.maximum's bits, signs of zeros too.
        for a in (np_rng.choice([0.0, -0.0, 1.0, -1.0], size=shape),
                  _reduction_operand(np_rng, shape)):
            want = a[0].copy()
            for row in a[1:]:
                np.maximum(want, row, out=want)
            assert _same_bits(T._max_lead(a), want)

    def test_many_rows_select_the_columns(self):
        assert T._columns(np.zeros((2, 63, 8))) is None
        assert T._columns(np.zeros((2, 64, 8))).shape == (8, 128)

    @pytest.mark.parametrize("n", WIDTHS)
    @pytest.mark.parametrize("lead", LEADS, ids=["2d-few", "2d-many",
                                                 "3d-few", "3d-many",
                                                 "4d-few", "4d-many"])
    def test_helpers_match_numpy_bit_for_bit(self, n, lead, np_rng):
        a = _reduction_operand(np_rng, lead + (n,))
        want_max = a.max(axis=-1, keepdims=True)
        want_sum = a.sum(axis=-1, keepdims=True)
        np.testing.assert_array_equal(T.max_last(a), want_max)
        got = T.sum_last(a)
        np.testing.assert_array_equal(got, want_sum)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want_sum))
        assert got.shape == want_sum.shape

    @pytest.mark.parametrize("n", [8, 20, 300])
    def test_operand_tells_summation_orders_apart(self, n, np_rng):
        # Guards the test above: on this data a left-to-right sum has other
        # bits than numpy's pairwise one, so an order slip would show.
        a = _reduction_operand(np_rng, (400, n))
        assert not np.array_equal(np.cumsum(a, axis=-1)[:, -1:], T.sum_last(a))

    @staticmethod
    def _matvec_operands(rng, samples, n=8, batch=6):
        """A lower-triangular [batch, 1, n, n] factor and [batch, samples, n]
        vectors, in the [B, S, N] layout; :func:`_sample_major` turns them
        into the operands of ``spread``."""
        lower = np.tril(_reduction_operand(rng, (batch, 1, n, n)))
        return (Tensor(lower, requires_grad=True),
                _reduction_operand(rng, (batch, samples, n)))

    @staticmethod
    def _spread(m, v):
        """``spread`` on the [B, S, N] operands, back in their layout."""
        return T.transpose(T.spread(T.transpose(m), _sample_major(v)))

    # B·S is 6 and 210 here: fewer and more rows than _COLUMN_ROWS.
    @pytest.mark.parametrize("samples", [1, 35])
    def test_matvec_forward_matches_the_broadcast_product(self, samples,
                                                          np_rng):
        m, v = self._matvec_operands(np_rng, samples)
        got = self._spread(m, v).data
        want = (m.data * v[..., None, :]).sum(-1)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("n", [3, 12, 20, 130])
    def test_spread_matches_the_broadcast_product_at_other_widths(self, n,
                                                                  np_rng):
        # Below 8 terms, between the running sums and past the halving.
        m, v = self._matvec_operands(np_rng, 5, n=n, batch=2)
        got = self._spread(m, v).data
        want = (m.data * v[..., None, :]).sum(-1)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("samples", [1, 35])
    def test_matvec_backward_matches_mul_then_sum(self, samples, np_rng):
        # The spread reads only the lower triangle, whose gradient is the
        # mul -> sum pair's; the entries above it get zero.
        m, v = self._matvec_operands(np_rng, samples)
        w = np_rng.normal(size=(6, samples, 8))
        (self._spread(m, v) * Tensor(w)).sum().backward()
        got = m.grad
        m.grad = None
        ((m * Tensor(v[:, :, None, :])).sum(axis=3) * Tensor(w)).sum().backward()
        upper = np.triu(np.ones((8, 8), dtype=bool), k=1)
        np.testing.assert_array_equal(got[..., ~upper], m.grad[..., ~upper])
        np.testing.assert_array_equal(got[..., upper], 0.0)

    def test_spread_reads_no_entry_above_the_diagonal(self, np_rng):
        m, v = self._matvec_operands(np_rng, 4)
        filled = m.data + np.triu(np.full((8, 8), 1e300), k=1)
        np.testing.assert_array_equal(self._spread(filled, v).data,
                                      self._spread(m, v).data)

    def test_matvec_records_one_node_on_the_matrix(self, np_rng):
        m, v = self._matvec_operands(np_rng, 3)
        mt = T.transpose(m)
        out = T.spread(mt, _sample_major(v))
        assert out._parents == (mt,)
        with T.no_grad():
            assert T.spread(mt, _sample_major(v))._parents == ()

    @pytest.mark.parametrize("batch, samples", [(1, 35), (3, 1), (3, 35),
                                                (200, 1), (200, 35)])
    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_softmax_mean_matches_softmax_then_mean(self, batch, samples, n,
                                                    np_rng):
        x = _reduction_operand(np_rng, (batch, samples, n))
        x = np.clip(x, -1e3, 1e3)         # logits a softmax can tell apart
        got = T.softmax_mean(_sample_major(x)).data
        assert got.flags.c_contiguous and got.shape == (n, batch)
        np.testing.assert_array_equal(got.T, T.softmax_last(x).mean(axis=1))

    @pytest.mark.parametrize("batch, samples", [(3, 1), (3, 35), (200, 1)])
    def test_softmax_mean_backward_matches_mean_of_softmax(self, batch,
                                                           samples, np_rng):
        x = np_rng.normal(size=(batch, samples, 8)) * 3.0
        w = np_rng.normal(size=(batch, 8))
        xt = Tensor(_sample_major(x), requires_grad=True)
        (T.transpose(T.softmax_mean(xt)) * Tensor(w)).sum().backward()
        xc = Tensor(x, requires_grad=True)
        (T.softmax(xc).mean(axis=1) * Tensor(w)).sum().backward()
        np.testing.assert_array_equal(xt.grad.T, xc.grad)

    def test_transpose_is_contiguous_both_ways(self, np_rng):
        a = Tensor(np_rng.normal(size=(2, 3, 4)), requires_grad=True)
        out = T.transpose(a)
        assert out.data.flags.c_contiguous
        np.testing.assert_array_equal(out.data, a.data.T)
        w = np_rng.normal(size=(4, 3, 2))
        (out * Tensor(w)).sum().backward()
        assert a.grad.flags.c_contiguous
        np.testing.assert_array_equal(a.grad, w.T)


def _sample_major(a: np.ndarray) -> np.ndarray:
    """[B, S, N] as the C-contiguous [N, S, B] the sampling routers hold."""
    return np.ascontiguousarray(a.T)


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

    @pytest.mark.parametrize("name, make", [
        ("exp", lambda: T.exp(Tensor([1000.0]))),
        ("add", lambda: Tensor([1e308]) + Tensor([1e308])),
        ("sub", lambda: Tensor([-1e308]) - Tensor([1e308])),
        ("mul", lambda: Tensor([1e308]) * Tensor([10.0])),
        ("div", lambda: Tensor([1e308]) / Tensor([1e-10])),
        ("matmul", lambda: T.matmul(Tensor([[1e308, 1e308]]),
                                    Tensor([[1.0], [1.0]]))),
        ("sum", lambda: Tensor([1e308, 1e308]).sum()),
        ("mean", lambda: Tensor([1e308, 1e308]).mean()),
        ("sqrt", lambda: T.sqrt(Tensor([-1.0]))),
        ("spread", lambda: T.spread(
            Tensor([[[1e308], [1e308]], [[0.0], [1e308]]]),
            np.array([[1.0], [1.0]]))),
        ("expert_mix", lambda: T.expert_mix(
            Tensor([[1e200, 1e200]]), Tensor([[1.0]]),
            Tensor([[[1e200], [1e200]]]), Tensor([[[1.0, 1.0]]]))),
        ("expert_outputs", lambda: T.expert_outputs(
            np.array([[1e200, 1e200]]), np.array([[[1e200], [1e200]]]),
            np.array([[[1.0, 1.0]]]))),
    ])
    def test_checked_op_overflow_aborts(self, name, make):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericsError, match=name):
            make()

    @pytest.mark.parametrize("make", [
        lambda x: x.reshape((4,)), lambda x: T.gather(x, [1, 0]),
        lambda x: T.scatter(x, [0, 2], 3), T.relu, T.softmax, T.transpose,
        lambda x: T.softmax_mean(x.reshape((2, 1, 2))),
    ], ids=["reshape", "gather", "scatter", "relu", "softmax", "transpose",
            "softmax_mean"])
    def test_finite_preserving_ops_skip_the_guard(self, make, monkeypatch):
        x = Tensor(np.arange(4.0).reshape(2, 2))
        ops = []
        monkeypatch.setattr(T, "_check_finite", lambda arr, op: ops.append(op))
        assert np.isfinite(make(x).data).all()
        assert ops == []

    def test_softmax_of_an_overflowing_shift_is_finite(self):
        np.testing.assert_array_equal(
            T.softmax(Tensor([-1e308, 1e308])).data, [0.0, 1.0])

    def test_non_finite_gradient_aborts(self):
        x = Tensor([1e-320], requires_grad=True)
        loss = T.log(x).sum()
        with np.errstate(over="ignore", divide="ignore"), \
                pytest.raises(NumericsError, match="backward"):
            loss.backward()

    def test_overflowing_gradient_sum_aborts(self):
        # Two finite contributions to x's gradient whose sum overflows.
        x = Tensor([1e-300], requires_grad=True)
        loss = (x * 1e308).sum() + (x * 1e308).sum()
        assert loss.item() == 2e8
        with pytest.raises(NumericsError, match="backward"):
            loss.backward()
        assert x.grad is None


def test_no_grad_blocks_tape():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with T.no_grad():
        out = (x * x).sum()
    assert out._parents == ()
    out.backward()
    assert x.grad is None
