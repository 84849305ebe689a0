"""Expert-selection mechanisms and their losses.

Provides deterministic top-k routing, two sampled baselines (global
temperature, input dropout), and the two variational routers: Gaussian
posteriors over routing logits (mean-field or full-covariance via a
Cholesky factor) and a learned per-input temperature with stochastic
selection.  Includes the Gumbel-top-k sampler, the closed-form KL terms,
and the Cholesky construction they rely on.

Conventions shared by every variant:

* top-k ties break toward the lowest expert index;
* gate weights are the routing probabilities renormalised over the
  selected set, so they always sum to one;
* per-token KL values are averaged over the batch before entering a loss.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .rng import RngStream, gumbel_from_uniform
from .tensor import Tensor

VARIANTS = ("map", "temp_scale", "mc_dropout", "vglr_mf", "vglr_fc", "vtsr")

# Additive floor keeping the learned temperature strictly positive.
TEMPERATURE_FLOOR = 1e-6
# Relaxation temperature of the straight-through Gumbel estimator.
GUMBEL_TAU = 1.0
# Init scale of the Gaussian nets' heads: the posterior opens next to the
# deterministic logits with unit covariance.
HEAD_INIT_STD = 1e-3

# Per-token uncertainty readouts; a variant lacking one reports None.
SIGNAL_NAMES = ("gate_entropy", "inf_logit_var", "inf_temp", "mc_logit_var")


@dataclass
class RouterSettings:
    """Router knobs shared by every variant (the config's ``router`` section).

    Each variant reads the ones it uses: ``eval_samples`` (vglr, mc_dropout),
    ``dropout_rate`` (mc_dropout) and ``global_temperature`` (temp_scale).
    The dimensions come from the routing projection itself.
    """

    eval_samples: int = 35
    dropout_rate: float = 0.1
    global_temperature: float = 0.7

    def __post_init__(self):
        if self.eval_samples < 1:
            raise ValueError("eval_samples must be >= 1")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.global_temperature <= 0:
            raise ValueError("global_temperature must be > 0")


@dataclass
class GaussianPosterior:
    """Residual-mean Gaussian over routing logits.

    Exactly one of ``diag_sigma`` (per-expert standard deviations) or
    ``cholesky_L`` (lower-triangular factor of the covariance) is set.
    """

    delta_mu: Tensor
    diag_sigma: Tensor | None = None
    cholesky_L: Tensor | None = None

    def __post_init__(self):
        if (self.diag_sigma is None) == (self.cholesky_L is None):
            raise ValueError("set exactly one of diag_sigma / cholesky_L")

    @property
    def is_full_cov(self) -> bool:
        return self.cholesky_L is not None


@dataclass
class BatchRouteResult:
    """Routing outcome for a batch of tokens, keeping tape-tracked pieces.

    ``gate_weights`` stays a tensor so the task loss can differentiate
    through the mixing weights; ``kl_term`` is the batch-mean regulariser
    (None when the variant has none or the pass is evaluation-only).
    """

    probs: np.ndarray
    selection: np.ndarray
    gate_weights: Tensor
    kl_term: Tensor | None
    kl_per_token: np.ndarray
    signals: dict
    logits_sampled: np.ndarray | None = None


# --------------------------------------------------------------------------
# shared pieces
# --------------------------------------------------------------------------


def top_k_mask(scores: np.ndarray, k: int) -> np.ndarray:
    """0/1 mask of the k largest entries per row; ties to the lowest index."""
    s = np.asarray(scores, dtype=np.float64)
    if k > s.shape[-1]:
        raise ValueError("k exceeds the number of experts")
    order = np.argsort(-s, axis=-1, kind="stable")
    mask = np.zeros_like(s)
    np.put_along_axis(mask, order[..., :k], 1.0, axis=-1)
    return mask


def shannon_entropy(p: np.ndarray, axis: int = -1) -> np.ndarray:
    """-sum p log p with 0 log 0 treated as 0."""
    p = np.asarray(p, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return -terms.sum(axis=axis)


def mc_logit_var(samples: np.ndarray) -> np.ndarray:
    """Total variance of the logit vectors across passes, per token.

    For ``samples`` of shape [B, S, N]: sum_s ||l_s - mean||^2 / (S - 1)
    per row; zero for identical samples and for a single pass.
    """
    if samples.shape[1] < 2:
        return np.zeros(samples.shape[0])
    dev = samples - samples.mean(axis=1, keepdims=True)
    return (dev ** 2).sum(axis=(1, 2)) / (samples.shape[1] - 1)


def _softmax_np(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _renorm_gates_t(probs: Tensor, mask: np.ndarray) -> Tensor:
    masked = probs * Tensor(mask)
    return masked / masked.sum(axis=-1, keepdims=True)


def _renorm_gates_np(probs: np.ndarray, mask: np.ndarray) -> np.ndarray:
    masked = probs * mask
    return masked / masked.sum(axis=-1, keepdims=True)


def _check_mode(mode: str) -> None:
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")


# --------------------------------------------------------------------------
# KL terms
# --------------------------------------------------------------------------


def kl_mf_per_token(delta_mu: Tensor, sigma: Tensor) -> Tensor:
    """KL[N(dmu, diag(sigma^2)) || N(0, I)] per row: 0.5 sum(dmu^2 + s^2 - 2 log s - 1)."""
    if np.any(sigma.data <= 0.0):
        raise ValueError("sigma must be strictly positive")
    terms = delta_mu * delta_mu + sigma * sigma - 2.0 * T.log(sigma) - 1.0
    return 0.5 * terms.sum(axis=-1)


def _validate_cholesky(L: np.ndarray) -> None:
    if L.shape[-1] != L.shape[-2]:
        raise ValueError("Cholesky factor must be square")
    if np.any(np.triu(L, k=1) != 0.0):
        raise ValueError("Cholesky factor must be lower-triangular")
    diag = np.diagonal(L, axis1=-2, axis2=-1)
    if np.any(diag <= 0.0):
        raise ValueError("Cholesky diagonal must be strictly positive")


def kl_fc_per_token(delta_mu: Tensor, L: Tensor) -> Tensor:
    """KL[N(dmu, LL^T) || N(0, I)] per row of ``delta_mu`` [B, N], ``L`` [B, N, N].

    0.5 (||dmu||^2 + ||L||_F^2 - 2 sum log L_ii - N); the log-determinant of
    LL^T reduces to twice the log of the diagonal.
    """
    _validate_cholesky(L.data)
    batch, n = L.shape[0], L.shape[-1]
    flat = L.reshape((batch, n * n))
    diag = T.gather(flat, np.arange(n) * n + np.arange(n), axis=1)
    quad = (delta_mu * delta_mu).sum(axis=-1)
    fro = (flat * flat).sum(axis=-1)
    logdet_half = T.log(diag).sum(axis=-1)
    return 0.5 * (quad + fro - 2.0 * logdet_half - float(n))


# --------------------------------------------------------------------------
# Cholesky construction
# --------------------------------------------------------------------------


def build_cholesky(flat) -> Tensor:
    """Lower-triangular factor from a flat parameter vector.

    Entries fill the lower triangle in (row, col) order; diagonal entries
    are exponentiated so the factor is always strictly positive definite.
    Accepts a single vector of length n(n+1)/2 or a batch of them.
    """
    t = T.as_tensor(flat)
    single = t.ndim == 1
    if single:
        t = t.reshape((1, -1))
    tri = t.shape[-1]
    n = int((math.isqrt(8 * tri + 1) - 1) // 2)
    if n * (n + 1) // 2 != tri:
        raise ValueError(f"flat length {tri} is not a triangular number")
    rows, cols = np.tril_indices(n)
    lin, on_diag = rows * n + cols, rows == cols
    diag = T.gather(t, np.nonzero(on_diag)[0], axis=1)
    full = T.scatter(T.exp(diag), lin[on_diag], n * n)
    if n > 1:
        off = T.gather(t, np.nonzero(~on_diag)[0], axis=1)
        full = full + T.scatter(off, lin[~on_diag], n * n)
    out = full.reshape((t.shape[0], n, n))
    return out.reshape((n, n)) if single else out


# --------------------------------------------------------------------------
# sampler
# --------------------------------------------------------------------------


def gumbel_top_k(scaled_logits, k: int, uniforms: np.ndarray,
                 relaxed: bool = False) -> tuple[np.ndarray, Tensor | None]:
    """Perturb each row of logits with one Gumbel vector and take the top k.

    ``uniforms`` (same shape as the logits) become the Gumbels.  The selected
    set is distributed exactly as sequential sampling of k experts without
    replacement from softmax(scaled_logits) (Kool, van Hoof & Welling, 2019),
    with ties broken as in :func:`top_k_mask`.  With ``relaxed`` it also
    returns softmax((scaled_logits + g) / tau) at tau = 1, which carries the
    gradient in straight-through training; otherwise that slot is None.
    """
    logits = T.as_tensor(scaled_logits)
    gumbels = gumbel_from_uniform(uniforms)
    if not relaxed:
        return top_k_mask(logits.data + gumbels, k), None
    perturbed = logits + Tensor(gumbels)
    relaxed_weights = T.softmax(perturbed / GUMBEL_TAU, axis=-1)
    return top_k_mask(perturbed.data, k), relaxed_weights


# --------------------------------------------------------------------------
# inference networks
# --------------------------------------------------------------------------


def _rms_normalise(u: Tensor) -> Tensor:
    """Scale each row to unit root-mean-square activation.

    The inference nets consume normalised representations, as they would
    inside a pre-norm transformer block; this keeps their outputs a function
    of activation direction rather than raw magnitude.
    """
    ms = (u * u).mean(axis=-1, keepdims=True)
    return u / T.sqrt(ms + 1e-12)


class GaussianInferenceNet:
    """Shared trunk with residual-mean and scale heads.

    The trunk is a bias-free dim -> hidden projection with ReLU over the
    RMS-normalised input; the mean head emits the residual shift of the
    logits and the scale head emits either log standard deviations
    (mean-field) or the flat Cholesky parameters (full covariance).  Heads
    start near zero so the posterior opens at the deterministic solution
    with unit covariance.
    """

    def __init__(self, dim: int, hidden: int, num_experts: int, full_cov: bool,
                 rng: RngStream):
        self.full_cov = full_cov
        self.w_trunk = Tensor(rng.normal((dim, hidden)) / math.sqrt(dim),
                              requires_grad=True)
        self.w_mean = Tensor(HEAD_INIT_STD * rng.normal((hidden, num_experts)),
                             requires_grad=True)
        scale_out = num_experts * (num_experts + 1) // 2 if full_cov else num_experts
        self.w_scale = Tensor(HEAD_INIT_STD * rng.normal((hidden, scale_out)),
                              requires_grad=True)

    def param_items(self) -> list[tuple[str, Tensor]]:
        return [("trunk", self.w_trunk), ("mean_head", self.w_mean),
                ("scale_head", self.w_scale)]

    def posterior(self, u: Tensor) -> GaussianPosterior:
        h = T.relu(T.matmul(_rms_normalise(u), self.w_trunk))
        dmu = T.matmul(h, self.w_mean)
        raw = T.matmul(h, self.w_scale)
        if self.full_cov:
            return GaussianPosterior(delta_mu=dmu, cholesky_L=build_cholesky(raw))
        return GaussianPosterior(delta_mu=dmu, diag_sigma=T.exp(raw))


class TemperatureNet:
    """Two-layer net emitting a strictly positive per-input temperature.

    Consumes the RMS-normalised representation, like the Gaussian nets.
    """

    def __init__(self, dim: int, hidden: int, rng: RngStream):
        self.w1 = Tensor(rng.normal((dim, hidden)) / math.sqrt(dim), requires_grad=True)
        self.b1 = T.zeros((hidden,), requires_grad=True)
        self.w2 = Tensor(rng.normal((hidden, 1)) / math.sqrt(hidden), requires_grad=True)
        self.b2 = T.zeros((1,), requires_grad=True)

    def param_items(self) -> list[tuple[str, Tensor]]:
        return [("w1", self.w1), ("b1", self.b1), ("w2", self.w2), ("b2", self.b2)]

    def raw(self, u: Tensor) -> Tensor:
        h = T.relu(T.matmul(_rms_normalise(u), self.w1) + self.b1)
        return T.matmul(h, self.w2) + self.b2

    def temperature(self, u: Tensor) -> Tensor:
        return T.softplus(self.raw(u)) + TEMPERATURE_FLOOR


# --------------------------------------------------------------------------
# router classes
# --------------------------------------------------------------------------


class RouterBase:
    """A router around a [D, N] projection ``w_r``: D and N are read from
    its shape, and the variant from the class (vglr: from its net)."""

    variant = "base"

    def __init__(self, w_r: Tensor, top_k: int, settings: RouterSettings):
        if not (1 <= top_k <= w_r.shape[1]):
            raise ValueError("require 1 <= top_k <= num_experts")
        self.w_r = w_r
        self.top_k = top_k
        self.settings = settings

    def param_items(self) -> list[tuple[str, Tensor]]:
        return [("w_r", self.w_r)] + [("phi." + k, v) for k, v in self.phi_items()]

    def phi_items(self) -> list[tuple[str, Tensor]]:
        return []

    def noise_spec(self, samples: int) -> dict:
        """Per-token noise requirements for ``samples`` draws per token:
        key (distribution name) -> shape."""
        return {}

    def draw_noise(self, rng: RngStream, lead: tuple, samples: int) -> dict:
        """One draw per noise key covering ``lead`` independent per-token
        noise sets: key -> array of shape ``lead + per-token shape``."""
        return {k: getattr(rng, k)(tuple(lead) + tuple(shape))
                for k, shape in self.noise_spec(samples).items()}

    def route(self, u: Tensor, mode: str, rng: RngStream | None = None,
              noise: dict | None = None) -> BatchRouteResult:
        raise NotImplementedError

    def _noise(self, rng, batch, mode, noise):
        if noise is not None:
            return noise
        if rng is None and self.variant != "map":
            raise ValueError(f"{self.variant} routing needs an RngStream or "
                             "pre-drawn noise")
        # One sample drives each training step.
        samples = 1 if mode == "train" else self.settings.eval_samples
        return self.draw_noise(rng, (batch,), samples)

    def _signals(self, gate_entropy, **present) -> dict:
        out = {k: None for k in SIGNAL_NAMES}
        out["gate_entropy"] = gate_entropy
        out.update(present)
        return out


class MapRouter(RouterBase):
    """Deterministic top-k over softmax of the linear routing logits."""

    variant = "map"

    def route(self, u, mode, rng=None, noise=None):
        _check_mode(mode)
        logits = T.matmul(u, self.w_r)
        probs = T.softmax(logits, axis=-1)
        mask = top_k_mask(probs.data, self.top_k)
        gates = _renorm_gates_t(probs, mask)
        batch = u.shape[0]
        return BatchRouteResult(
            probs=probs.data, selection=mask, gate_weights=gates,
            kl_term=None, kl_per_token=np.zeros(batch),
            signals=self._signals(shannon_entropy(probs.data)))


class TempScaleRouter(RouterBase):
    """Stochastic selection from softmax(logits / T) at a fixed global T.

    Temperature shapes the selection distribution only; the mixing weights
    stay the unscaled routing probabilities renormalised over the sampled
    set, so the T -> 0 limit reproduces the deterministic router exactly.
    """

    variant = "temp_scale"

    def noise_spec(self, samples):
        return {"uniform": (self.w_r.shape[1],)}

    def route(self, u, mode, rng=None, noise=None):
        _check_mode(mode)
        noise = self._noise(rng, u.shape[0], mode, noise)
        l_det = u.data @ self.w_r.data
        scaled = l_det / self.settings.global_temperature
        probs = _softmax_np(scaled)
        mask, _ = gumbel_top_k(scaled, self.top_k, noise["uniform"])
        gates = Tensor(_renorm_gates_np(_softmax_np(l_det), mask))
        return BatchRouteResult(
            probs=probs, selection=mask, gate_weights=gates,
            kl_term=None, kl_per_token=np.zeros(u.shape[0]),
            signals=self._signals(shannon_entropy(probs)))


class McDropoutRouter(RouterBase):
    """Averages routing over S input-dropout passes of the projection."""

    variant = "mc_dropout"

    def noise_spec(self, samples):
        return {"uniform": (samples, self.w_r.shape[0])}

    def route(self, u, mode, rng=None, noise=None):
        _check_mode(mode)
        noise = self._noise(rng, u.shape[0], mode, noise)
        rate = self.settings.dropout_rate
        dim, n = self.w_r.shape
        s = noise["uniform"].shape[1]
        keep = (noise["uniform"] >= rate).astype(np.float64)
        if rate > 0.0:
            keep /= (1.0 - rate)
        dropped = u.data[:, None, :] * keep                      # [B,S,D]
        logits_s = (dropped.reshape(-1, dim) @ self.w_r.data)
        logits_s = logits_s.reshape(u.shape[0], s, n)
        p_bar = _softmax_np(logits_s).mean(axis=1)
        mask = top_k_mask(p_bar, self.top_k)
        gates = Tensor(_renorm_gates_np(p_bar, mask))
        mc_var = mc_logit_var(logits_s)
        return BatchRouteResult(
            probs=p_bar, selection=mask, gate_weights=gates,
            kl_term=None, kl_per_token=np.zeros(u.shape[0]),
            signals=self._signals(shannon_entropy(p_bar), mc_logit_var=mc_var),
            logits_sampled=logits_s)


class VglrRouter(RouterBase):
    """Gaussian posterior over logits, reparameterised sampling, averaged softmax.

    The base projection stays frozen; only the inference net (trunk plus
    mean/scale heads) trains.  One sample drives training; evaluation draws
    ``eval_samples`` and averages the softmax outputs before top-k.
    """

    def __init__(self, w_r, top_k, settings, phi: GaussianInferenceNet):
        super().__init__(w_r, top_k, settings)
        self.phi = phi
        self.variant = "vglr_fc" if phi.full_cov else "vglr_mf"

    def phi_items(self):
        return self.phi.param_items()

    def noise_spec(self, samples):
        return {"normal": (samples, self.w_r.shape[1])}

    def route(self, u, mode, rng=None, noise=None):
        _check_mode(mode)
        noise = self._noise(rng, u.shape[0], mode, noise)
        eps = np.asarray(noise["normal"], dtype=np.float64)
        batch, s, n = eps.shape
        l_det = u.data @ self.w_r.data
        post = self.phi.posterior(u)
        centre = Tensor(l_det[:, None, :]) + post.delta_mu.reshape((batch, 1, n))
        if post.is_full_cov:
            lmat = post.cholesky_L
            spread = (lmat.reshape((batch, 1, n, n))
                      * Tensor(eps[:, :, None, :])).sum(axis=3)
            kl_tok = kl_fc_per_token(post.delta_mu, lmat)
            inf_var = (lmat.data ** 2).sum(axis=(1, 2))
        else:
            spread = post.diag_sigma.reshape((batch, 1, n)) * Tensor(eps)
            kl_tok = kl_mf_per_token(post.delta_mu, post.diag_sigma)
            inf_var = (post.diag_sigma.data ** 2).sum(axis=1)
        l_samples = centre + spread                                   # [B,S,N]
        p_bar = T.softmax(l_samples, axis=-1).mean(axis=1)
        mask = top_k_mask(p_bar.data, self.top_k)
        gates = _renorm_gates_t(p_bar, mask)
        mc_var = mc_logit_var(l_samples.data) if s >= 2 else None
        return BatchRouteResult(
            probs=p_bar.data, selection=mask, gate_weights=gates,
            kl_term=kl_tok.mean(), kl_per_token=kl_tok.data.copy(),
            signals=self._signals(shannon_entropy(p_bar.data),
                                  inf_logit_var=inf_var, mc_logit_var=mc_var),
            logits_sampled=l_samples.data)


class VtsrRouter(RouterBase):
    """Learned per-input temperature with stochastic expert selection.

    Both modes select k experts by Gumbel-top-k on logits / T, which samples
    them without replacement from softmax(logits / T).  Training also routes
    through the straight-through relaxation and fills the KL slot with the
    regulariser -log T.
    """

    variant = "vtsr"

    def __init__(self, w_r, top_k, settings, temperature_net: TemperatureNet):
        super().__init__(w_r, top_k, settings)
        self.temperature_net = temperature_net

    def phi_items(self):
        return self.temperature_net.param_items()

    def noise_spec(self, samples):
        return {"uniform": (self.w_r.shape[1],)}

    def route(self, u, mode, rng=None, noise=None):
        _check_mode(mode)
        noise = self._noise(rng, u.shape[0], mode, noise)
        train = mode == "train"
        l_det = u.data @ self.w_r.data
        temp = self.temperature_net.temperature(u)                   # [B,1]
        scaled = Tensor(l_det) / temp
        mask, relaxed = gumbel_top_k(scaled, self.top_k,
                                     noise["uniform"], relaxed=train)
        probs = _softmax_np(scaled.data)
        hard = Tensor(_renorm_gates_np(probs, mask))
        gates, kl_term = hard, None
        if train:
            gates = (relaxed - relaxed.detach()) + hard
            kl_term = (-T.log(temp).reshape((u.shape[0],))).mean()
        return BatchRouteResult(
            probs=probs, selection=mask, gate_weights=gates, kl_term=kl_term,
            kl_per_token=-np.log(temp.data[:, 0]),
            signals=self._signals(shannon_entropy(probs),
                                  inf_temp=temp.data[:, 0].copy()))


def make_router(variant: str, w_r: Tensor, top_k: int,
                settings: RouterSettings, phi_hidden: int,
                rng: RngStream) -> RouterBase:
    """Build a router of the given variant around an existing projection;
    ``phi_hidden`` is the width of the inference net, if it has one."""
    if variant == "map":
        return MapRouter(w_r, top_k, settings)
    if variant == "temp_scale":
        return TempScaleRouter(w_r, top_k, settings)
    if variant == "mc_dropout":
        return McDropoutRouter(w_r, top_k, settings)
    dim, n = w_r.shape
    if variant in ("vglr_mf", "vglr_fc"):
        phi = GaussianInferenceNet(dim, phi_hidden, n,
                                   full_cov=(variant == "vglr_fc"), rng=rng)
        return VglrRouter(w_r, top_k, settings, phi)
    if variant == "vtsr":
        net = TemperatureNet(dim, phi_hidden, rng)
        return VtsrRouter(w_r, top_k, settings, net)
    raise ValueError(f"unknown router variant {variant!r}")
