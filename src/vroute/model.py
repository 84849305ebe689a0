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
                      RouterSettings, make_router, mc_logit_var,
                      shannon_entropy)
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
               self.num_classes) < 1:
            raise ValueError("all model dimensions must be >= 1")
        if self.top_k > self.num_experts:
            raise ValueError("top_k must not exceed num_experts")


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

    def forward(self, u: Tensor, mode: str, rng: RngStream | None = None,
                noise: dict | None = None) -> tuple[Tensor, BatchRouteResult]:
        rec = self.router.route(u, mode, rng=rng, noise=noise)
        return T.expert_mix(u, rec.gate_weights, self.w1, self.w2), rec


class _Block:
    def __init__(self, dense: Tensor, moe: MoELayer):
        self.dense = dense
        self.moe = moe


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
        self.variational_layer_indices: list[int] = []

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

    def forward(self, x, mode: str, rng: RngStream | None = None,
                input_noise: dict | None = None,
                router_noise: dict | None = None,
                block_inputs: list | None = None):
        """Run a batch; returns class logits and the per-layer route records.

        ``input_noise`` maps block index -> additive array applied to that
        block's expert-layer input, immediately before routing (perturbation
        harness); ``router_noise`` maps block index -> pre-drawn router noise;
        ``block_inputs``, when a list, is filled with each expert layer's
        clean input activations.
        """
        h = T.matmul(T.as_tensor(x), self.input_proj)
        records: list[BatchRouteResult] = []
        for idx, blk in enumerate(self.blocks):
            h = T.relu(T.matmul(h, blk.dense))
            if block_inputs is not None:
                block_inputs.append(h.data)
            if input_noise is not None and idx in input_noise:
                h = h + Tensor(input_noise[idx])
            noise = None if router_noise is None else router_noise.get(idx)
            layer_rng = None if rng is None else rng.derive("layer", idx)
            h, rec = blk.moe.forward(h, mode, rng=layer_rng, noise=noise)
            records.append(rec)
        return T.matmul(h, self.head), records


# --------------------------------------------------------------------------
# losses
# --------------------------------------------------------------------------


def kl_penalty(records: list[BatchRouteResult]) -> Tensor | None:
    """Sum of the per-layer batch-mean KL / regulariser terms."""
    terms = [r.kl_term for r in records if r.kl_term is not None]
    if not terms:
        return None
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total


def elbo_loss(logits: Tensor, labels, records: list[BatchRouteResult],
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
                               rng: RngStream,
                               settings: RouterSettings) -> MoEClassifier:
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
    model.variational_layer_indices = sorted(
        set(model.variational_layer_indices) | set(indices))
    return model


# --------------------------------------------------------------------------
# prediction with uncertainty readouts
# --------------------------------------------------------------------------


@dataclass
class Prediction:
    probs: np.ndarray                       # [B, C]
    signals: dict                           # per-example arrays or None
    kl_per_token: np.ndarray                # [B] summed layer KL, pass mean


def _content_noise_block(model: MoEClassifier, x: np.ndarray,
                         rng: RngStream, passes: int) -> dict:
    """Pre-draw router noise for every pass, keyed by token content rather
    than batch slot, so duplicated inputs inside one batch route identically.

    Returns layer -> key -> array of shape [passes, batch, ...]."""
    plans: dict[int, dict] = {}
    for idx, blk in enumerate(model.blocks):
        router = blk.moe.router
        layer_rng = rng.derive("layer", idx)
        if not router.noise_spec(1):
            plans[idx] = {}
            continue
        per_row = [router.draw_noise(
            layer_rng.derive_from_bytes(np.ascontiguousarray(row).tobytes()),
            (passes,), 1) for row in x]
        plans[idx] = {k: np.stack([d[k] for d in per_row], axis=1)
                      for k in per_row[0]}
    return plans


def predict_with_uncertainty(model: MoEClassifier, x,
                             rng: RngStream | None = None) -> Prediction:
    """Monte-Carlo predictive distribution plus per-example signals.

    Runs S stochastic forward passes, S being the largest ``eval_samples``
    of the model's stochastic routers (one pass without any), each
    realising one routing sample per stochastic layer, and averages the
    class softmax: the marginalisation over latent routing.  Per layer, gate
    entropy is the entropy of the pass-averaged routing distribution, the
    inferred variance/temperature are the (pass-independent) inference-net
    readouts, and the multi-pass logit variance is taken across the passes'
    sampled logit vectors.  ``kl_per_token`` is each example's KL / regulariser
    term summed over layers and averaged over the passes: the quantity the
    training objective weights by ``kl_weight``, read off the same passes.
    Deterministic given the stream, and independent of batch order because
    router noise is keyed by token content.
    """
    if rng is None:
        rng = RngStream(0)
    x = np.asarray(x, dtype=np.float64)
    passes = max((blk.moe.router.settings.eval_samples for blk in model.blocks
                  if blk.moe.router.variant != "map"), default=1)
    plan = _content_noise_block(model, x, rng, passes)
    n_layers = len(model.blocks)
    prob_sum = None
    kl_sum = np.zeros(x.shape[0])
    route_prob_sum = [None] * n_layers
    logit_samples: list = [[] for _ in range(n_layers)]
    first_records = None
    for s in range(passes):
        plan_s = {idx: {k: v[s] for k, v in layer_plan.items()}
                  for idx, layer_plan in plan.items()}
        with T.no_grad():
            logits, records = model.forward(x, "eval", router_noise=plan_s)
            p = T.softmax(logits, axis=-1).data
        prob_sum = p if prob_sum is None else prob_sum + p
        for i, rec in enumerate(records):
            kl_sum += rec.kl_per_token
            route_prob_sum[i] = (rec.probs if route_prob_sum[i] is None
                                 else route_prob_sum[i] + rec.probs)
            if rec.logits_sampled is not None:
                logit_samples[i].append(rec.logits_sampled[:, 0, :])
        if first_records is None:
            first_records = records
    per_layer = []
    for i in model.variational_layer_indices or range(n_layers):
        sig = dict(first_records[i].signals)
        sig["gate_entropy"] = shannon_entropy(route_prob_sum[i] / passes)
        if len(logit_samples[i]) >= 2:
            sig["mc_logit_var"] = mc_logit_var(np.stack(logit_samples[i], axis=1))
        per_layer.append(sig)
    signals: dict = {}
    for key in SIGNAL_NAMES:
        values = [sig[key] for sig in per_layer if sig[key] is not None]
        signals[key] = np.mean(values, axis=0) if values else None
    return Prediction(probs=prob_sum / passes, signals=signals,
                      kl_per_token=kl_sum / passes)
