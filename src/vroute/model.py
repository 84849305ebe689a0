"""Toy mixture-of-experts classifier.

A stack of blocks, each a dense projection with ReLU followed by an MoE
layer whose router is pluggable per block.  There is no attention and no
sequence axis: one example is one token.  All projections are bias-free
matrices; everything runs on the tape from :mod:`vroute.tensor`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .rng import RngStream
from .routers import (SIGNAL_NAMES, BatchRouteResult, MapRouter, RouterBase,
                      RouterSettings, make_router)
from .tensor import Tensor


@dataclass
class ModelConfig:
    feature_dim: int = 16
    hidden_dim: int = 32
    expert_hidden: int | None = None   # defaults to hidden_dim
    num_blocks: int = 4
    num_experts: int = 8
    top_k: int = 2
    num_classes: int = 4
    phi_hidden: int | None = None      # defaults to hidden_dim // 4

    def __post_init__(self):
        if self.expert_hidden is None:
            self.expert_hidden = self.hidden_dim
        if self.phi_hidden is None:
            self.phi_hidden = max(1, self.hidden_dim // 4)
        if min(self.feature_dim, self.hidden_dim, self.expert_hidden,
               self.num_blocks, self.num_experts, self.top_k,
               self.num_classes, self.phi_hidden) < 1:
            raise ValueError("all model dimensions must be >= 1")
        # The cost model counts an inference net no wider than the block.
        if self.phi_hidden > self.hidden_dim:
            raise ValueError(f"phi_hidden {self.phi_hidden} must not exceed "
                             f"hidden_dim {self.hidden_dim}")
        # At k = N every expert is always selected, so there is no routing
        # to measure (stability would read 1.0 in every cell).
        if self.top_k >= self.num_experts:
            raise ValueError(f"top_k {self.top_k} must be below num_experts "
                             f"{self.num_experts}, or every expert is always "
                             "selected")


class MoELayer:
    """N two-layer ReLU experts mixed by the router's gate weights.

    The experts are stacked as ``w1`` [N, D, H] and ``w2`` [N, H, D] and
    mixed by one :func:`vroute.tensor.expert_mix` tape op.
    """

    def __init__(self, w1: Tensor, w2: Tensor, router: RouterBase):
        if router.w_r.shape[1] != w1.shape[0]:
            raise ValueError("router expert count must match the expert stack")
        self.w1 = w1
        self.w2 = w2
        self.router = router

    def forward(self, u: Tensor, mode: str, noise=None, encoding=None,
                experts: np.ndarray | None = None
                ) -> tuple[Tensor, BatchRouteResult]:
        """Route ``u`` with the router ``noise`` and mix the experts;
        ``encoding`` and ``experts`` are the router's encoding and the
        experts' outputs on ``u``, when a prefix holds them."""
        rec = self.router.route(u, mode, noise, encoding)
        return (T.expert_mix(u, rec.gate_weights, self.w1, self.w2,
                             outputs=experts, selection=rec.selection), rec)


class _Block:
    def __init__(self, dense: Tensor, moe: MoELayer):
        self.dense = dense
        self.moe = moe


@dataclass
class Prefix:
    """The start of a pass, run once and shared by the passes that agree on it.

    ``h`` is the activation entering block ``block``'s MoE layer (after the
    block's dense projection).  ``experts`` [N, B, D], when set, holds that
    layer's per-expert outputs on ``h`` (:func:`vroute.tensor.expert_outputs`)
    and ``encoding`` its router's :meth:`~vroute.routers.RouterBase.encode`
    of ``h``: the block's pass-invariant work, for untaped passes that
    differ only in their router noise.  A prefix holds plain arrays, so no
    gradient reaches the blocks it covers.
    """

    block: int
    h: np.ndarray
    experts: np.ndarray | None = None
    encoding: object = None


class MoEClassifier:
    """Input projection, B dense+MoE blocks, and a linear class head."""

    def __init__(self, config: ModelConfig, rng: RngStream):
        self.config = config
        c = config
        self.input_proj = Tensor(rng.derive("in").normal((c.feature_dim, c.hidden_dim))
                                 / math.sqrt(c.feature_dim), requires_grad=True)
        self.blocks: list[_Block] = []
        for b in range(c.num_blocks):
            brng = rng.derive("block", b)
            dense = Tensor(brng.derive("dense").normal((c.hidden_dim, c.hidden_dim))
                           / math.sqrt(c.hidden_dim), requires_grad=True)
            streams = [brng.derive("expert", j) for j in range(c.num_experts)]
            w1 = Tensor(np.stack([s.normal((c.hidden_dim, c.expert_hidden)) for s in streams])
                        / math.sqrt(c.hidden_dim), requires_grad=True)
            w2 = Tensor(np.stack([s.normal((c.expert_hidden, c.hidden_dim)) for s in streams])
                        / math.sqrt(c.expert_hidden), requires_grad=True)
            w_r = Tensor(brng.derive("router").normal((c.hidden_dim, c.num_experts))
                         / math.sqrt(c.hidden_dim), requires_grad=True)
            router = MapRouter(w_r, c.top_k, RouterSettings())
            self.blocks.append(_Block(dense, MoELayer(w1, w2, router)))
        self.head = Tensor(rng.derive("head").normal((c.hidden_dim, c.num_classes))
                           / math.sqrt(c.hidden_dim), requires_grad=True)

    # -- parameters ---------------------------------------------------------

    def param_items(self) -> list[tuple[str, Tensor]]:
        items = [("input_proj", self.input_proj)]
        for i, blk in enumerate(self.blocks):
            items.append((f"block{i}.dense", blk.dense))
            items.append((f"block{i}.experts.w1", blk.moe.w1))
            items.append((f"block{i}.experts.w2", blk.moe.w2))
            for name, p in blk.moe.router.param_items():
                items.append((f"block{i}.router.{name}", p))
        items.append(("head", self.head))
        return items

    def phi_param_items(self) -> list[tuple[str, Tensor]]:
        return [(n, p) for n, p in self.param_items() if ".router.phi." in n]

    # -- forward ------------------------------------------------------------

    def stochastic_blocks(self) -> list[int]:
        """Indices of the blocks whose router is not MAP."""
        return [i for i, blk in enumerate(self.blocks)
                if blk.moe.router.variant != "map"]

    def first_stochastic_block(self) -> int:
        """Index of the first block whose router is not MAP, or 0 if every
        router is.  With the weights fixed, the blocks before it give the
        same bits in every pass: they are the shareable prefix."""
        return next(iter(self.stochastic_blocks()), 0)

    def forward(self, x, mode: str, rng: RngStream | None = None,
                router_noise: dict | None = None,
                block_inputs: list | None = None,
                prefix: Prefix | None = None, route_only: bool = False):
        """Run a batch; returns class logits and the per-layer route records.

        ``router_noise`` maps block index -> that block's pre-drawn router
        noise array (:meth:`layer_noise`);
        ``block_inputs``, when a list, is filled with each expert layer's
        input activations.  A ``prefix`` stands in for the blocks before
        ``prefix.block``: the pass starts at that block's MoE layer, ``x`` is
        not read, those blocks' records are None, and ``block_inputs`` gets
        the inputs from that block on; that block's layer reuses the
        prefix's expert outputs and router encoding when it holds them.
        With ``route_only`` the pass only routes its first layer (block 0,
        or the prefix's block), encoding ``h`` itself: it mixes no experts,
        runs no later block or head, fills no ``block_inputs``, and returns
        None logits and that layer's record.  Each block draws its router
        noise from ``rng`` by its own index (:meth:`layer_noise`), so either
        cut gives the layers it routes the whole pass's records.
        """
        if prefix is None:
            h, start = self._entry(x), 0
        else:
            h, start = Tensor(prefix.h), prefix.block
        if route_only:
            return None, self.blocks[start].moe.router.route(
                h, mode, self.layer_noise(start, rng, h.shape[0], mode,
                                          router_noise))
        records: list = [None] * start
        h = self._run_blocks(h, start, len(self.blocks), mode, rng, records,
                             router_noise, block_inputs, prefix)
        return T.matmul(h, self.head), records

    def prefix(self, x, block: int, experts: bool = False) -> Prefix:
        """Run ``x`` without a tape up to block ``block``'s MoE layer, and
        with ``experts`` also run that layer's experts and router encoding
        on every row.

        The routers before ``block`` get no stream, so they must be MAP.
        """
        with T.no_grad():
            h = self._run_blocks(self._entry(x), 0, block, "eval", None, [])
            if not experts:
                return Prefix(block, h.data)
            moe = self.blocks[block].moe
            return Prefix(block, h.data, T.expert_outputs(h, moe.w1, moe.w2),
                          moe.router.encode(h))

    def _entry(self, x) -> Tensor:
        """The input projection and block 0's dense projection."""
        h = T.matmul(T.as_tensor(x), self.input_proj)
        return T.relu(T.matmul(h, self.blocks[0].dense))

    def layer_noise(self, idx: int, rng: RngStream | None, batch: int,
                    mode: str, router_noise: dict | None = None):
        """Block ``idx``'s router noise for a pass over ``batch`` tokens: the
        one place a pass's stream becomes a layer's noise.

        It is ``router_noise[idx]`` when that entry exists; otherwise None
        for a MAP router, else a draw from ``rng.derive("layer", idx)``:
        one sample per token in training, ``eval_samples`` in eval."""
        if router_noise is not None and idx in router_noise:
            return router_noise[idx]
        router = self.blocks[idx].moe.router
        if router.variant == "map":
            return None
        if rng is None:
            raise ValueError(f"{router.variant} routing needs an RngStream "
                             "or pre-drawn noise")
        samples = 1 if mode == "train" else router.settings.eval_samples
        return router.draw_noise(rng.derive("layer", idx), (batch,), samples)

    def _run_blocks(self, h: Tensor, start: int, stop: int, mode: str,
                    rng: RngStream | None, records: list,
                    router_noise: dict | None = None,
                    block_inputs: list | None = None,
                    prefix: Prefix | None = None) -> Tensor:
        """Run the MoE layers ``start .. stop-1`` from ``h``, the activation
        entering layer ``start``, and append their records; the prefix's
        block takes its expert outputs and encoding.  Returns the
        activation entering layer ``stop``, or the last block's output."""
        for idx in range(start, stop):
            if block_inputs is not None:
                block_inputs.append(h.data)
            at_prefix = prefix is not None and prefix.block == idx
            h, rec = self.blocks[idx].moe.forward(
                h, mode, self.layer_noise(idx, rng, h.shape[0], mode,
                                          router_noise),
                prefix.encoding if at_prefix else None,
                prefix.experts if at_prefix else None)
            records.append(rec)
            if idx + 1 < len(self.blocks):
                h = T.relu(T.matmul(h, self.blocks[idx + 1].dense))
        return h


# --------------------------------------------------------------------------
# losses
# --------------------------------------------------------------------------


def kl_penalty(records: list[BatchRouteResult | None]) -> Tensor | None:
    """Sum over layers of the batch-mean per-token KL / regulariser."""
    terms = [r.kl.mean() for r in records if r is not None and r.kl is not None]
    if not terms:
        return None
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total


def elbo_loss(logits: Tensor, labels, records: list[BatchRouteResult | None],
              kl_weight: float) -> Tensor:
    """Cross-entropy plus kl_weight times the summed per-layer KL terms.

    With a zero weight or no stochastic layers this is exactly the plain
    cross-entropy.
    """
    ce = T.cross_entropy(logits, labels)
    kl = kl_penalty(records)
    if kl is None or kl_weight == 0.0:
        return ce
    return ce + kl_weight * kl


# --------------------------------------------------------------------------
# router attachment
# --------------------------------------------------------------------------


def attach_variational_routers(model: MoEClassifier, indices, variant: str,
                               rng: RngStream, settings: RouterSettings) -> None:
    """Replace the routers at ``indices`` with freshly initialised ``variant``
    routers wrapping each layer's existing (to-be-frozen) projection; top-k
    and the inference-net width come from the model config.

    Layers not listed keep their current router.  Passing the same indices
    again rebuilds the same structure, so the parameter count is unchanged.
    """
    indices = sorted(set(int(i) for i in indices))
    for idx in indices:
        if not (0 <= idx < len(model.blocks)):
            raise ValueError(f"invalid block index {idx}")
    c = model.config
    for idx in indices:
        moe = model.blocks[idx].moe
        moe.router = make_router(variant, moe.router.w_r, c.top_k, settings,
                                 c.phi_hidden, rng.derive("attach", idx))


# --------------------------------------------------------------------------
# prediction with uncertainty readouts
# --------------------------------------------------------------------------


@dataclass
class Prediction:
    probs: np.ndarray                       # [B, C]
    signals: dict                           # per-example arrays or None
    kl_per_token: np.ndarray                # [B] summed layer KL, pass mean


def shannon_entropy(p: np.ndarray) -> np.ndarray:
    """-sum p log p over the last axis, with 0 log 0 treated as 0."""
    p = np.asarray(p, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    return -terms.sum(axis=-1)


def mc_logit_var(samples: np.ndarray) -> np.ndarray:
    """Total variance of the logit vectors across S >= 2 passes, per token.

    For ``samples`` of shape [B, S, N]: sum_s ||l_s - mean||^2 / (S - 1)
    per row; zero for identical samples.  numpy orders a reduction by
    memory layout, so the samples are reduced C-contiguous: the routers'
    ``logits_sampled``, and the per-layer buffer of
    :func:`predict_with_uncertainty`, are laid out sample-major.
    """
    samples = np.ascontiguousarray(samples)
    dev = samples - samples.mean(axis=1, keepdims=True)
    return np.square(dev, out=dev).sum(axis=(1, 2)) / (samples.shape[1] - 1)


def _eval_passes(model: MoEClassifier) -> int:
    """The pass count of a predict: the largest ``eval_samples`` of the
    model's stochastic routers, or one pass without any."""
    return max((model.blocks[i].moe.router.settings.eval_samples
                for i in model.stochastic_blocks()), default=1)


def noise_plan(model: MoEClassifier, x: np.ndarray, rng: RngStream) -> dict:
    """Pre-draw router noise for every pass of a predict, keyed by token
    content rather than batch slot, so duplicated inputs inside one batch
    route identically.

    Returns stochastic layer -> array of shape [passes, batch, ...] with the
    dtype of the router's draw, filled row by row from one stream per row;
    MAP layers have no entry and derive no stream.  It reads no trained
    weight, so it holds while the model trains."""
    passes = _eval_passes(model)
    plans: dict[int, np.ndarray] = {}
    for idx in model.stochastic_blocks():
        router = model.blocks[idx].moe.router
        layer_rng = rng.derive("layer", idx)
        # A zero-row draw gives the per-token shape and dtype; its counter
        # tick does not reach the row streams, whose keys ignore it.
        empty = router.draw_noise(layer_rng, (passes, 0), 1)
        plans[idx] = np.empty((passes, len(x)) + empty.shape[2:],
                              dtype=empty.dtype)
        for i, row in enumerate(x):
            plans[idx][:, i] = router.draw_noise(
                layer_rng.derive_from_bytes(row.tobytes()), (passes,), 1)
    return plans


def predict_with_uncertainty(model: MoEClassifier, x, rng: RngStream,
                             plan: dict | None = None) -> Prediction:
    """Monte-Carlo predictive distribution plus per-example signals.

    Runs S stochastic forward passes, S being the largest ``eval_samples``
    of the model's stochastic routers (one pass without any), each
    realising one routing sample per stochastic layer, and averages the
    class softmax: the marginalisation over latent routing.  This is the one
    place the pass-level signals are defined.  Per stochastic layer (every
    layer of an all-MAP model), gate entropy is the entropy of the
    pass-averaged routing distribution, the inferred variance/temperature
    are the router's own readouts in the first pass, and the multi-pass
    logit variance is taken across the passes' sampled logit vectors (None
    with fewer than two passes).  Only the first stochastic layer's
    readout is the same in every pass: a later layer's input follows the
    routing sampled before it.  Each signal is the mean over the layers
    that report it.  ``kl_per_token`` is each example's KL / regulariser
    term summed over layers and averaged over the passes: the quantity the
    training objective weights by ``kl_weight``, read off the same passes.
    Deterministic given the stream, and independent of batch order because
    router noise is keyed by token content.

    ``plan``, when given, must be ``noise_plan(model, x, rng)``: it reads
    no trained weight, so a training stage's validation draws it once per
    stage.  The passes differ only in their router noise, so what precedes
    the first noise draw runs once, as one :class:`Prefix`: the MAP blocks
    before the first stochastic block, and that block's expert outputs and
    router encoding.  Every output bit is that of S whole passes.
    """
    x = np.asarray(x, dtype=np.float64)
    if plan is None:
        plan = noise_plan(model, x, rng)
    passes = _eval_passes(model)
    layers = model.stochastic_blocks()
    prefix = model.prefix(x, layers[0], experts=True) if layers else None
    layers = layers or range(len(model.blocks))
    prob_sum = 0.0
    kl_sum = np.zeros(x.shape[0])
    route_prob_sum = dict.fromkeys(layers, 0.0)
    # Per layer, the passes' sampled logits in one C-contiguous [B, S, N]
    # buffer: the layout mc_logit_var reduces.
    logit_samples: dict = {}
    for s in range(passes):
        with T.no_grad():
            logits, records = model.forward(
                x, "eval", router_noise={i: v[s] for i, v in plan.items()},
                prefix=prefix)
        prob_sum = prob_sum + T.softmax_last(logits.data)
        for rec in records:
            if rec is not None and rec.kl is not None:
                kl_sum += rec.kl.data
        for i in layers:
            route_prob_sum[i] = route_prob_sum[i] + records[i].probs
            sampled = records[i].logits_sampled
            if sampled is not None and passes >= 2:
                if s == 0:
                    logit_samples[i] = np.empty(
                        (x.shape[0], passes, sampled.shape[2]))
                logit_samples[i][:, s, :] = sampled[:, 0, :]
        if s == 0:
            first = records
    signals: dict = {}
    for key in SIGNAL_NAMES:
        if key == "gate_entropy":
            values = [shannon_entropy(route_prob_sum[i] / passes)
                      for i in layers]
        elif key == "mc_logit_var":
            values = [mc_logit_var(v) for v in logit_samples.values()]
        else:
            values = [first[i].signals[key] for i in layers
                      if key in first[i].signals]
        signals[key] = np.mean(values, axis=0) if values else None
    return Prediction(probs=prob_sum / passes, signals=signals,
                      kl_per_token=kl_sum / passes)
