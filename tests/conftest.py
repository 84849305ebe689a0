import itertools

import numpy as np
import pytest

from vroute.tensor import Tensor

# Uniform draw whose Gumbel transform is exactly zero: -log(-log(e^-1)) = 0.
ZERO_GUMBEL_UNIFORM = np.exp(-1.0)


def central_difference(loss_fn, tensor: Tensor, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar loss w.r.t. one tensor."""
    grad = np.zeros_like(tensor.data)
    it = np.nditer(tensor.data, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = tensor.data[idx]
        tensor.data[idx] = orig + step
        plus = loss_fn()
        tensor.data[idx] = orig - step
        minus = loss_fn()
        tensor.data[idx] = orig
        grad[idx] = (plus - minus) / (2.0 * step)
        it.iternext()
    return grad


def assert_grad_close(analytic: np.ndarray, numeric: np.ndarray,
                      rel_tol: float = 1e-5, abs_floor: float = 1e-9) -> None:
    """Gradient agreement: relative error below rel_tol, with an absolute
    floor for entries where both gradients are numerically zero."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    diff = np.abs(analytic - numeric)
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    ok = (diff <= abs_floor) | (diff <= rel_tol * scale)
    assert ok.all(), (
        f"gradient mismatch: worst rel "
        f"{np.max(diff / np.maximum(scale, 1e-300)):.3e}")


def enumerate_subset_probs(p: np.ndarray, k: int) -> dict:
    """Exact subset probabilities of sequential sampling without replacement."""
    n = len(p)
    out: dict = {}
    for perm in itertools.permutations(range(n), k):
        prob, remaining = 1.0, 1.0
        for i in perm:
            if p[i] == 0.0:
                prob = 0.0
                break
            prob *= p[i] / remaining
            remaining -= p[i]
        key = frozenset(perm)
        out[key] = out.get(key, 0.0) + prob
    return out


def total_variation(counts: dict, probs: dict, draws: int) -> float:
    keys = set(counts) | set(probs)
    return 0.5 * sum(abs(counts.get(key, 0) / draws - probs.get(key, 0.0))
                     for key in keys)


class FixedGaussianPhi:
    """Stub inference net emitting a constant posterior for every token."""

    def __init__(self, delta_mu, sigma=None, chol=None):
        self.delta_mu = np.asarray(delta_mu, dtype=np.float64)
        self.sigma = sigma
        self.chol = chol
        self.full_cov = chol is not None

    def param_items(self):
        return []

    def posterior(self, u):
        b = u.shape[0]
        dmu = Tensor(np.tile(self.delta_mu, (b, 1)))
        if self.full_cov:
            return dmu, Tensor(np.tile(self.chol, (b, 1, 1)))
        return dmu, Tensor(np.tile(self.sigma, (b, 1)))


@pytest.fixture
def np_rng():
    return np.random.default_rng(20240817)
