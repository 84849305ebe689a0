"""Parameter updates: Adam over named parameter lists."""
from __future__ import annotations

import numpy as np

from .tensor import Tensor


def adam_step(param: np.ndarray, grad: np.ndarray, m: np.ndarray, v: np.ndarray,
              t: int, lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> None:
    """One Adam update; ``m``/``v`` moment buffers are updated in place."""
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    param -= lr * m_hat / (np.sqrt(v_hat) + eps)


class Adam:
    def __init__(self, params: list[tuple[str, Tensor]], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        # Sorted by name so update order never depends on construction order.
        self.params = sorted(params, key=lambda kv: kv[0])
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self._m = [np.zeros_like(p.data) for _, p in self.params]
        self._v = [np.zeros_like(p.data) for _, p in self.params]

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None

    def step(self) -> None:
        self.t += 1
        for (_, p), m, v in zip(self.params, self._m, self._v):
            if p.grad is not None:
                adam_step(p.data, p.grad, m, v, self.t, self.lr,
                          self.beta1, self.beta2, self.eps)
