"""Expert-selection mechanisms and their losses.

Provides deterministic top-k routing, two sampled baselines (global
temperature, input dropout), and the two variational routers: Gaussian
posteriors over routing logits (mean-field or full-covariance via a
Cholesky factor) and a learned per-input temperature with stochastic
selection.  Includes the Gumbel-top-k sampler, the closed-form KL terms,
and the Cholesky construction they rely on.  The five stochastic routers
share two selection rules: Gumbel-top-k on scaled logits (temp_scale,
vtsr) and top-k of the mean softmax over sampled logits (mc_dropout,
vglr_mf, vglr_fc).

Conventions shared by every variant:

* top-k ties break toward the lowest expert index;
* gate weights are the routing probabilities renormalised over the
  selected set, so they always sum to one;
* per-token KL values are averaged over the batch before entering a loss.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .rng import RngStream, gumbel_from_uniform
from .tensor import Tensor

VARIANTS = ("map", "temp_scale", "mc_dropout", "vglr_mf", "vglr_fc", "vtsr")

# Additive floor keeping the learned temperature strictly positive, and the
# least fixed temperature a config or a sweep may set: far below it the
# scaled logits overflow.
TEMPERATURE_FLOOR = 1e-6
# The rule every fixed temperature keeps (RouterSettings checks it).
TEMPERATURE_RULE = f"finite and >= {TEMPERATURE_FLOOR:g}"
# Init scale of the Gaussian nets' heads: the posterior opens next to the
# deterministic logits with unit covariance.
HEAD_INIT_STD = 1e-3

# The per-token signals of vroute.model.predict_with_uncertainty; a variant
# lacking one reports None.
SIGNAL_NAMES = ("gate_entropy", "inf_logit_var", "inf_temp", "mc_logit_var")


@dataclass
class RouterSettings:
    """Router knobs shared by every variant (the config's ``router`` section).

    Each variant reads the ones it uses: ``dropout_rate`` (mc_dropout) and
    ``global_temperature`` (temp_scale), which keeps
    :data:`TEMPERATURE_RULE`.  Every stochastic variant reads
    ``eval_samples``: the largest one sets the pass count of
    :func:`vroute.model.predict_with_uncertainty`, and in any other eval
    forward vglr and mc_dropout draw that many samples per token.  The
    dimensions come from the routing projection itself.
    """

    eval_samples: int = 35
    dropout_rate: float = 0.1
    global_temperature: float = 0.7

    def __post_init__(self):
        if self.eval_samples < 1:
            raise ValueError("eval_samples must be >= 1")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError("dropout_rate must be in [0, 1)")
        if not TEMPERATURE_FLOOR <= self.global_temperature < math.inf:
            raise ValueError(f"global_temperature must be {TEMPERATURE_RULE}"
                             f", got {self.global_temperature!r}")


@dataclass
class BatchRouteResult:
    """Routing outcome for a batch of tokens: only what the router computes.

    ``gate_weights`` stays a tensor so the task loss can differentiate
    through the mixing weights; ``kl`` is the per-token KL / regulariser
    tensor [B] (None for a variant without one); ``signals`` holds the
    router's own per-token readout (``inf_logit_var`` for vglr, ``inf_temp``
    for vtsr) and ``logits_sampled`` [B, S, N] its sampled logit vectors.
    ``probs`` and ``selection`` are C-contiguous [B, N]; the sampling
    routers (vglr, mc_dropout) hold their samples sample-major, so their
    ``logits_sampled`` is a view of a C-contiguous [N, S, B] array.  The
    readouts that need every pass live in
    :func:`vroute.model.predict_with_uncertainty`.
    """

    probs: np.ndarray
    selection: np.ndarray
    gate_weights: Tensor
    kl: Tensor | None = None
    signals: dict = field(default_factory=dict)
    logits_sampled: np.ndarray | None = None


# --------------------------------------------------------------------------
# shared pieces
# --------------------------------------------------------------------------


def top_k_mask(scores: np.ndarray, k: int) -> np.ndarray:
    """0/1 float mask [B, N] of the k largest entries of each row of
    ``scores`` [B, N]; ties go to the lowest index.  Every row holds
    exactly k ones, which the stored-output read of
    :func:`vroute.tensor.expert_mix` relies on.  A non-finite score raises
    :class:`~vroute.tensor.NumericsError`."""
    s = np.asarray(scores, dtype=np.float64)
    b, n = s.shape
    if k > n:
        raise ValueError("k exceeds the number of experts")
    if not np.logical_and.reduce(np.isfinite(s), axis=None):
        raise T.NumericsError("top_k_mask got non-finite scores")
    # k argmax passes, each taking a row's first maximum and then ruling it
    # out, select what a stable sort of -s would.  The passes write through
    # flat indices into C-contiguous arrays.
    mask = np.zeros((b, n))
    work = s.copy()
    flat_mask, flat_work = mask.reshape(-1), work.reshape(-1)
    starts = np.arange(0, b * n, n)
    for _ in range(k):
        top = work.argmax(axis=1)
        top += starts
        flat_mask[top] = 1.0
        flat_work[top] = -np.inf
    return mask


def _renorm_gates(probs, mask: np.ndarray):
    """``probs`` renormalised over the 0/1 ``mask``: an array for an array,
    a taped result for a :class:`~vroute.tensor.Tensor`."""
    masked = probs * mask
    return masked / masked.sum(axis=-1, keepdims=True)


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
    n = L.shape[-1]
    if L.shape[-2] != n:
        raise ValueError("Cholesky factor must be square")
    upper = _triangle(n)[4]
    if np.any(L.reshape(L.shape[:-2] + (n * n,)).take(upper, axis=-1) != 0.0):
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
    diag = T.gather(flat, _triangle(n)[1])
    quad = (delta_mu * delta_mu).sum(axis=-1)
    fro = (flat * flat).sum(axis=-1)
    logdet_half = T.log(diag).sum(axis=-1)
    return 0.5 * (quad + fro - 2.0 * logdet_half - float(n))


# --------------------------------------------------------------------------
# Cholesky construction
# --------------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _triangle(n: int) -> tuple[np.ndarray, ...]:
    """Index arrays of an n x n factor whose lower triangle is filled in
    (row, col) order, all ascending: the flat-vector positions of the
    diagonal and their places in the row-major n * n factor, the same for
    the entries below the diagonal, and the places above it."""
    rows, cols = np.tril_indices(n)
    lin, on_diag = rows * n + cols, rows == cols
    above = np.triu_indices(n, k=1)
    out = (np.flatnonzero(on_diag), lin[on_diag], np.flatnonzero(~on_diag),
           lin[~on_diag], above[0] * n + above[1])
    for idx in out:
        idx.flags.writeable = False
    return out


def build_cholesky(flat) -> Tensor:
    """Lower-triangular factors [B, n, n] from a batch of flat parameter
    vectors [B, n(n+1)/2].

    Entries fill the lower triangle in (row, col) order; diagonal entries
    are exponentiated so the factor is always strictly positive definite.
    """
    t = T.as_tensor(flat)
    tri = t.shape[-1]
    n = int((math.isqrt(8 * tri + 1) - 1) // 2)
    if n * (n + 1) // 2 != tri:
        raise ValueError(f"flat length {tri} is not a triangular number")
    diag, diag_at, off, off_at, _ = _triangle(n)
    full = T.scatter(T.exp(T.gather(t, diag)), diag_at, n * n)
    if n > 1:
        full = full + T.scatter(T.gather(t, off), off_at, n * n)
    return full.reshape((t.shape[0], n, n))


# --------------------------------------------------------------------------
# sampler
# --------------------------------------------------------------------------


def gumbel_top_k(scaled_logits, k: int,
                 uniforms: np.ndarray) -> tuple[np.ndarray, Tensor | None]:
    """Perturb each row of logits with one Gumbel vector and take the top k.

    ``uniforms`` (same shape as the logits) become the Gumbels.  The selected
    set is distributed exactly as sequential sampling of k experts without
    replacement from softmax(scaled_logits) (Kool, van Hoof & Welling, 2019),
    with ties broken as in :func:`top_k_mask`.  When the tape records the
    logits it also returns softmax((scaled_logits + g) / tau) at tau = 1,
    which carries the gradient in straight-through training; otherwise that
    slot is None.
    """
    logits = T.as_tensor(scaled_logits)
    gumbels = gumbel_from_uniform(uniforms)
    if not T.recording((logits,)):
        return top_k_mask(logits.data + gumbels, k), None
    perturbed = logits + Tensor(gumbels)
    relaxed_weights = T.softmax(perturbed)
    return top_k_mask(perturbed.data, k), relaxed_weights


# --------------------------------------------------------------------------
# inference networks
# --------------------------------------------------------------------------


# Squares overflow float64 above about 1.3e154; below this bound the mean
# square of a row is computed as it is.
_RMS_RESCALE_ABOVE = 2.0 ** 500


def _rms_normalise(u: Tensor) -> Tensor:
    """Scale each row to unit root-mean-square activation.

    The inference nets consume normalised representations, as they would
    inside a pre-norm transformer block; this keeps their outputs a function
    of activation direction rather than raw magnitude.  A row whose largest
    |value| passes ``_RMS_RESCALE_ABOVE`` is first divided by that value, so
    squaring it cannot overflow; no other row changes by a bit.
    """
    if np.abs(u.data).max(initial=0.0) > _RMS_RESCALE_ABOVE:
        peak = np.abs(u.data).max(axis=-1, keepdims=True)
        u = u / Tensor(np.where(peak > _RMS_RESCALE_ABOVE, peak, 1.0))
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

    def posterior(self, u: Tensor) -> tuple[Tensor, Tensor]:
        """The residual mean shift [B, N] of the logits and the scale: the
        standard deviations [B, N] (mean field) or the lower-triangular
        Cholesky factors [B, N, N] of the covariance (full covariance)."""
        h = T.relu(T.matmul(_rms_normalise(u), self.w_trunk))
        dmu = T.matmul(h, self.w_mean)
        raw = T.matmul(h, self.w_scale)
        if self.full_cov:
            return dmu, build_cholesky(raw)
        return dmu, T.exp(raw)


class TemperatureNet:
    """Two-layer net emitting a strictly positive per-input temperature.

    Consumes the RMS-normalised representation, like the Gaussian nets.
    """

    def __init__(self, dim: int, hidden: int, rng: RngStream):
        self.w1 = Tensor(rng.normal((dim, hidden)) / math.sqrt(dim), requires_grad=True)
        self.b1 = Tensor(np.zeros(hidden), requires_grad=True)
        self.w2 = Tensor(rng.normal((hidden, 1)) / math.sqrt(hidden), requires_grad=True)
        self.b2 = Tensor(np.zeros(1), requires_grad=True)

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

    def draw_noise(self, rng: RngStream, lead: tuple, samples: int):
        """One draw from ``rng`` of the noise for ``lead`` independent
        per-token noise sets, ``samples`` draws per token: one array of shape
        ``lead + per-token shape``, or None for a router that samples
        nothing (MAP)."""
        return None

    def encode(self, u: Tensor):
        """The pass-invariant part of routing ``u``: everything ``route``
        computes before it reads the noise, or None for a router with
        nothing to share.  ``route`` calls it unless handed its result, so
        passes over one ``u`` with the router's weights fixed can share one
        encoding."""
        return None

    def route(self, u: Tensor, mode: str, noise=None,
              encoding=None) -> BatchRouteResult:
        """Route the batch ``u`` with ``noise``, one :meth:`draw_noise` array
        for its tokens (None for MAP), and ``encoding``, the :meth:`encode`
        of ``u`` when the caller holds it.  Every variant routes through
        here: the checks and the encoding are done once, then
        ``_select(u, noise, encoding)`` routes, MAP's or its family's."""
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        if noise is not None and np.shape(noise)[:1] != u.shape[:1]:
            raise self._noise_error(noise, u, "hold one row per token")
        return self._select(u, noise,
                            self.encode(u) if encoding is None else encoding)

    def _noise_error(self, noise, u: Tensor, rule: str) -> ValueError:
        return ValueError(f"{self.variant} noise {np.shape(noise)} does not "
                          f"fit inputs {u.shape}: it must {rule}")


class MapRouter(RouterBase):
    """Deterministic top-k over softmax of the linear routing logits."""

    variant = "map"

    def _select(self, u, noise, encoding):
        logits = T.matmul(u, self.w_r)
        probs = T.softmax(logits)
        mask = top_k_mask(probs.data, self.top_k)
        gates = _renorm_gates(probs, mask)
        return BatchRouteResult(probs=probs.data, selection=mask,
                                gate_weights=gates)


class _GumbelTopKRouter(RouterBase):
    """Stochastic selection by Gumbel-top-k (temp_scale, vtsr): k experts
    without replacement from p = softmax(scaled logits), one selection per
    token whatever the sample count.

    A variant supplies only :meth:`encode`: the scaled logits, p, the base
    q that the gates renormalise over the sampled set, the KL slot and the
    readout dict.  On the tape the gates pass straight through the
    relaxation of :func:`gumbel_top_k`, whose forward value is exactly
    zero.
    """

    def draw_noise(self, rng, lead, samples):
        """One uniform per token and expert."""
        return rng.uniform((*lead, self.w_r.shape[1]))

    def _select(self, u, noise, encoding):
        """Route with ``noise`` [B, N] of uniforms.  The readout dict is
        copied, since passes over one ``u`` may share the encoding."""
        if np.shape(noise) != (u.shape[0], self.w_r.shape[1]):
            raise self._noise_error(noise, u, "be [B, N]")
        scaled, probs, gate_probs, kl, readouts = encoding
        mask, relaxed = gumbel_top_k(scaled, self.top_k, noise)
        gates = Tensor(_renorm_gates(gate_probs, mask))
        if relaxed is not None:
            gates = (relaxed - relaxed.detach()) + gates
        return BatchRouteResult(probs=probs, selection=mask, gate_weights=gates,
                                kl=kl, signals=dict(readouts))


class _SampledLogitRouter(RouterBase):
    """Top-k of the mean softmax over S sampled logit vectors per token
    (mc_dropout, vglr_mf, vglr_fc); the gates are that mean renormalised
    over the selection.

    A variant supplies :meth:`draw_noise`, :meth:`encode` (None, or a
    tuple that ends with the KL slot and the readout dict) and
    ``_samples(u, noise, encoding)``, the Tensor of the logits sampled
    with ``noise``.  The noise is [B, S, K], S >= 1, with K the size of
    ``w_r``'s axis ``_noise_axis``: the expert count N, or the input width
    D for mc_dropout.  The samples stay C-contiguous [N, S, B] (experts,
    samples, rows) up to the sample mean, so each operation over the
    expert or sample axis reads whole slabs; ``probs`` and the gates come
    back as C-contiguous [B, N], and ``logits_sampled`` is a [B, S, N]
    view of the samples.
    """

    _noise_axis = 1

    def _select(self, u, noise, encoding):
        shape, axis = np.shape(noise), self._noise_axis
        if len(shape) != 3 or not shape[1] or shape[2] != self.w_r.shape[axis]:
            raise self._noise_error(noise, u,
                                    f"be [B, S, {'DN'[axis]}], S >= 1")
        samples = self._samples(u, noise, encoding)                  # [N,S,B]
        p_bar = T.transpose(T.softmax_mean(samples))                 # [B,N]
        mask = top_k_mask(p_bar.data, self.top_k)
        kl, readouts = (None, {}) if encoding is None else encoding[-2:]
        return BatchRouteResult(
            probs=p_bar.data, selection=mask,
            gate_weights=_renorm_gates(p_bar, mask), kl=kl,
            signals=dict(readouts), logits_sampled=samples.data.T)


class TempScaleRouter(_GumbelTopKRouter):
    """Stochastic selection from softmax(logits / T) at a fixed global T.

    Temperature shapes the selection distribution only; the mixing weights
    stay the unscaled routing probabilities renormalised over the sampled
    set, so the T -> 0 limit reproduces the deterministic router exactly.
    """

    variant = "temp_scale"

    def encode(self, u):
        """The scaled logits, their softmax and the unscaled softmax; no KL
        and no readout."""
        l_det = u.data @ self.w_r.data
        scaled = l_det / self.settings.global_temperature
        return scaled, T.softmax_last(scaled), T.softmax_last(l_det), None, {}


def kept_inputs(keep: np.ndarray, u: np.ndarray, rate: float,
                out: np.ndarray | None = None) -> np.ndarray:
    """The inverted-dropout inputs [B, S, D] of ``u`` [B, D] under the
    boolean keep mask ``keep`` [B, S, D], written to ``out`` when given:
    one multiply of the mask by ``u / (1 - rate)``.  A kept entry is 1.0
    times that, a dropped one 0.0 times it, a zero with u's sign: the bits
    of the float mask scaled by ``1 / (1 - rate)`` and times ``u``.  Each
    token's entries depend on its own row alone, so a block of tokens gets
    the same bits as the whole batch."""
    return np.multiply(keep, (u * (1.0 / (1.0 - rate)))[:, None, :], out=out)


# The most rows of the [B·S, D] dropped inputs one block of a mc_dropout
# route holds (a block takes whole tokens, at least one).  At D = 32 that is
# 256 KiB, and each block's gemm stays on one BLAS thread.
_DROPOUT_BLOCK_ROWS = 1024


class McDropoutRouter(_SampledLogitRouter):
    """Averages routing over S input-dropout passes of the projection.

    A route fills one [B·S, N] array of sampled logits a block of whole
    tokens at a time, each block's dropped inputs through one gemm, so it
    holds no [B, S, D] float array.  The blocks split the batch evenly, so
    none is one row (which numpy hands to gemv) unless the whole array is.
    """

    variant = "mc_dropout"
    _noise_axis = 0

    def draw_noise(self, rng, lead, samples):
        """The boolean keep mask ``v >= dropout_rate`` of one uniform ``v``
        per token, sample and input coordinate, drawn with no float array
        (:meth:`RngStream.uniform` with ``at_least``)."""
        return rng.uniform((*lead, samples, self.w_r.shape[0]),
                           at_least=self.settings.dropout_rate)

    def _samples(self, u, noise, encoding):
        """The logits of ``u`` under ``noise`` [B, S, D], the boolean keep
        mask of :meth:`draw_noise`."""
        if noise.dtype != np.bool_:
            raise TypeError("mc_dropout noise must be a boolean keep mask, "
                            f"not {noise.dtype}")
        (b, dim), (s, n) = u.shape, (noise.shape[1], self.w_r.shape[1])
        blocks = max(1, -(-b // max(1, _DROPOUT_BLOCK_ROWS // s)))
        edges = [b * i // blocks for i in range(blocks + 1)]
        dropped = np.empty((-(-b // blocks), s, dim))
        logits_s = np.empty((b * s, n))
        for b0, b1 in zip(edges, edges[1:]):
            block = kept_inputs(noise[b0:b1], u.data[b0:b1],
                                self.settings.dropout_rate,
                                out=dropped[:b1 - b0])
            np.matmul(block.reshape(-1, dim), self.w_r.data,
                      out=logits_s[b0 * s:b1 * s])
        return Tensor(np.ascontiguousarray(logits_s.reshape(b, s, n).T))


class VglrRouter(_SampledLogitRouter):
    """Gaussian posterior over logits, reparameterised sampling, averaged softmax.

    The base projection stays frozen; only the inference net (trunk plus
    mean/scale heads) trains.  One sample per token drives training; an
    eval forward of the stability and sweep harnesses draws
    ``eval_samples``, while each pass of
    :func:`vroute.model.predict_with_uncertainty` is handed one sample per
    token from its noise plan.
    """

    def __init__(self, w_r, top_k, settings, phi: GaussianInferenceNet):
        super().__init__(w_r, top_k, settings)
        self.phi = phi
        self.variant = "vglr_fc" if phi.full_cov else "vglr_mf"

    def phi_items(self):
        return self.phi.param_items()

    def draw_noise(self, rng, lead, samples):
        return rng.normal((*lead, samples, self.w_r.shape[1]))

    def encode(self, u):
        """The posterior's centre [N, 1, B] and scale ([N, 1, B] standard
        deviations or [N, N, 1, B] axis-reversed Cholesky factors), the
        per-token KL and the inferred logit variance readout."""
        batch, n = u.shape[0], self.w_r.shape[1]
        l_det = u.data @ self.w_r.data
        dmu, scale = self.phi.posterior(u)
        centre = T.transpose(Tensor(l_det[:, None, :])
                             + dmu.reshape((batch, 1, n)))
        if self.phi.full_cov:
            return (centre, T.transpose(scale.reshape((batch, 1, n, n))),
                    kl_fc_per_token(dmu, scale),
                    {"inf_logit_var": (scale.data ** 2).sum(axis=(1, 2))})
        return (centre, T.transpose(scale.reshape((batch, 1, n))),
                kl_mf_per_token(dmu, scale),
                {"inf_logit_var": (scale.data ** 2).sum(axis=1)})

    def _samples(self, u, noise, encoding):
        """Sample s of token b under ``noise`` [B, S, N] of standard
        normals: centre + sigma * eps (mean field) or centre + L @ eps
        (full covariance; :func:`vroute.tensor.spread`, which skips the
        zeros above the diagonal)."""
        eps = np.ascontiguousarray(np.asarray(noise, dtype=np.float64).T)
        centre, scale = encoding[:2]
        if self.phi.full_cov:
            return centre + T.spread(scale, eps)
        return centre + scale * Tensor(eps)


class VtsrRouter(_GumbelTopKRouter):
    """Learned per-input temperature with stochastic expert selection.

    It selects k experts by Gumbel-top-k on logits / T, which samples them
    without replacement from softmax(logits / T), and the gates are that
    softmax renormalised over the sampled set.  The KL slot holds the
    regulariser -log T.
    """

    variant = "vtsr"

    def __init__(self, w_r, top_k, settings, temperature_net: TemperatureNet):
        super().__init__(w_r, top_k, settings)
        self.temperature_net = temperature_net

    def phi_items(self):
        return self.temperature_net.param_items()

    def encode(self, u):
        """The scaled logits, their softmax twice (p, and q for the gates),
        the regulariser and the temperature readout."""
        temp = self.temperature_net.temperature(u)                   # [B,1]
        scaled = Tensor(u.data @ self.w_r.data) / temp
        probs = T.softmax_last(scaled.data)
        return (scaled, probs, probs, -T.log(temp).reshape((u.shape[0],)),
                {"inf_temp": temp.data[:, 0].copy()})


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
