"""Parameter updates: Adam over named parameter lists."""
from __future__ import annotations

import numpy as np

from .tensor import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    def __init__(self, params: list[tuple[str, Tensor]], lr: float):
        # Sorted by name so update order never depends on construction order.
        self.params = sorted(params, key=lambda kv: kv[0])
        self.lr = lr
        self.t = 0
        self._m = [np.zeros_like(p.data) for _, p in self.params]
        self._v = [np.zeros_like(p.data) for _, p in self.params]

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None

    def step(self) -> None:
        """One Adam update of every parameter with a gradient; the moment
        buffers are updated in place."""
        self.t += 1
        for (_, p), m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            m *= BETA1
            m += (1.0 - BETA1) * grad
            v *= BETA2
            v += (1.0 - BETA2) * grad * grad
            m_hat = m / (1.0 - BETA1 ** self.t)
            v_hat = v / (1.0 - BETA2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)
