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
        # Two scratch arrays the size of the largest parameter, shared by
        # every update (one parameter is updated at a time), viewed in each
        # parameter's shape.
        size = max((p.data.size for _, p in self.params), default=0)
        scratch = np.empty((2, size))
        self._scratch = [tuple(s[:p.data.size].reshape(p.data.shape)
                               for s in scratch) for _, p in self.params]

    def zero_grad(self) -> None:
        for _, p in self.params:
            p.grad = None

    def step(self) -> None:
        """One Adam update of every parameter with a gradient; the moment
        buffers are updated in place.  The update is
        ``lr * m_hat / (sqrt(v_hat) + eps)`` with the bias-corrected moments
        ``m / (1 - beta1**t)`` and ``v / (1 - beta2**t)``, worked out in the
        scratch arrays one operation at a time, in that order."""
        self.t += 1
        correct1 = 1.0 - BETA1 ** self.t
        correct2 = 1.0 - BETA2 ** self.t
        for (_, p), m, v, (a, b) in zip(self.params, self._m, self._v,
                                        self._scratch):
            grad = p.grad
            if grad is None:
                continue
            m *= BETA1
            m += np.multiply(grad, 1.0 - BETA1, out=a)
            v *= BETA2
            np.multiply(grad, 1.0 - BETA2, out=a)
            v += np.multiply(a, grad, out=a)
            np.divide(m, correct1, out=a)
            a *= self.lr
            np.divide(v, correct2, out=b)
            np.sqrt(b, out=b)
            b += EPS
            a /= b
            p.data -= a
