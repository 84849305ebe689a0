"""Adam over named parameter lists, against the textbook update's bits."""
import numpy as np
import pytest

from vroute.optim import BETA1, BETA2, EPS, Adam
from vroute.tensor import Tensor

pytestmark = pytest.mark.bitwise

SHAPES = {"w": (4, 5), "b": (5,), "scale": (1,), "stack": (3, 2, 4)}


def _params(rng):
    return [(name, Tensor(rng.normal(size=shape), requires_grad=True))
            for name, shape in SHAPES.items()]


def _textbook(data, m, v, grad, t, lr):
    """One Adam update of one parameter (Kingma & Ba, 2015, Algorithm 1)."""
    m = BETA1 * m + (1.0 - BETA1) * grad
    v = BETA2 * v + (1.0 - BETA2) * grad * grad
    m_hat = m / (1.0 - BETA1 ** t)
    v_hat = v / (1.0 - BETA2 ** t)
    return data - lr * m_hat / (np.sqrt(v_hat) + EPS), m, v


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class _Recording(np.ndarray):
    """An array that logs its name whenever it is updated in place."""

    def __isub__(self, other):
        self.log.append(self.name)
        return super().__isub__(other)


def test_matches_the_textbook_update_bit_for_bit():
    rng = np.random.default_rng(0)
    params = _params(rng)
    want = {name: (p.data.copy(), np.zeros(p.shape), np.zeros(p.shape))
            for name, p in params}
    opt = Adam(params, lr=0.01)
    for t in range(1, 6):
        for name, p in params:
            # Gradients over many magnitudes, with exact and signed zeros.
            grad = rng.normal(size=p.shape) * np.exp(
                rng.normal(scale=4.0, size=p.shape))
            grad.reshape(-1)[::5] = 0.0
            grad.reshape(-1)[1::7] = -0.0
            p.grad = grad
            want[name] = _textbook(*want[name], grad, t, 0.01)
        opt.step()
        assert opt.t == t
        for name, p in params:
            assert _same_bits(p.data, want[name][0]), (name, t)


def test_parameter_without_a_gradient_is_left_alone_while_t_advances():
    rng = np.random.default_rng(1)
    params = _params(rng)
    frozen = dict(params)["b"]
    before = frozen.data.copy()
    opt = Adam(params, lr=0.1)
    for _, p in params:
        p.grad = np.ones(p.shape)
    frozen.grad = None
    opt.step()
    opt.step()
    assert opt.t == 2
    assert _same_bits(frozen.data, before)
    index = [name for name, _ in opt.params].index("b")
    assert not opt._m[index].any() and not opt._v[index].any()
    # Its first update uses t = 3's bias corrections.
    grad = rng.normal(size=frozen.shape)
    frozen.grad = grad
    for name, p in params:
        if name != "b":
            p.grad = None
    opt.step()
    want, _, _ = _textbook(before, np.zeros(frozen.shape),
                           np.zeros(frozen.shape), grad, 3, 0.1)
    assert _same_bits(frozen.data, want)


def test_updates_in_name_order():
    log = []
    params = []
    for name in ("zeta", "alpha", "mid", "beta"):
        p = Tensor(np.ones(3), requires_grad=True)
        p.data = np.ones(3).view(_Recording)
        p.data.log, p.data.name = log, name
        p.grad = np.full(3, 0.5)
        params.append((name, p))
    opt = Adam(params, lr=0.1)
    assert [name for name, _ in opt.params] == ["alpha", "beta", "mid", "zeta"]
    opt.step()
    assert log == ["alpha", "beta", "mid", "zeta"]


def test_zero_grad_clears_every_gradient():
    params = _params(np.random.default_rng(2))
    for _, p in params:
        p.grad = np.ones(p.shape)
    Adam(params, lr=0.1).zero_grad()
    assert all(p.grad is None for _, p in params)

