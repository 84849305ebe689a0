"""Perturbation harness for routing stability.

Injects isotropic Gaussian noise at one block input at a time, with the
noise scale tied to the average activation norm, and measures how much the
perturbed layer's expert selection moves (Jaccard similarity against the
clean pass).  A report is its list of ``StabilityCell``s, one per (layer,
gamma), layer-major.  A pass perturbed at layer L starts from the clean
pass's input to L plus the noise and only routes layer L
(``forward(route_only=True)``), the only selection it is read at, for the
last layer as for the others: it mixes no experts and runs no later block or
head.  Stochastic routers replay identical streams in the clean and
perturbed passes (common random numbers): a report draws each stochastic
layer's router noise once in the clean pass and once more for the passes
perturbed at that layer, which all replay that one draw.  That removes the
sampler's pass-to-pass spread, but not its coupling: for the Gumbel-top-k
routers (temp_scale, vtsr) the Jaccard also reflects how the sampler maps
one noise draw at two nearby logit vectors, so it is not the router's
stability alone.

The fixed-temperature sweep runs whole passes, since it reads accuracy;
the MAP blocks before the swapped layer (and before the first stochastic
block) run once per layer, as a prefix shared by its temperatures.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as T
from .metrics import calibration_report, jaccard_rows
from .model import MoEClassifier, Prefix
from .rng import RngStream
from .routers import TempScaleRouter

DEFAULT_GAMMAS = (0.001, 0.002, 0.005, 0.007, 0.01, 0.02, 0.05)


@dataclass
class PerturbationSpec:
    gamma_levels: tuple = DEFAULT_GAMMAS
    diagnostic_gamma: float = 0.01
    repeats: int = 3

    def __post_init__(self):
        # A str iterates by character and a bool is an int: neither is a level.
        if not isinstance(self.gamma_levels, (list, tuple)) or any(
                isinstance(g, bool) or not isinstance(g, (int, float))
                for g in self.gamma_levels):
            raise ValueError("gamma_levels must be a list of numbers, got "
                             f"{self.gamma_levels!r}")
        self.gamma_levels = tuple(float(g) for g in self.gamma_levels)
        if not self.gamma_levels:
            raise ValueError("gamma_levels must not be empty")
        if not all(0 < g < math.inf
                   for g in self.gamma_levels + (self.diagnostic_gamma,)):
            raise ValueError("noise levels must be finite and > 0")
        twice = sorted({g for g in self.gamma_levels
                        if self.gamma_levels.count(g) > 1})
        if twice:
            raise ValueError(f"gamma_levels {twice} given more than once")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")


@dataclass
class StabilityCell:
    layer: int
    gamma: float
    mean_jaccard: float
    q10: float
    q50: float
    q90: float


def perturbation_noise(shape: tuple, gamma: float, mean_norm: float,
                       rng: RngStream) -> np.ndarray:
    """Additive N(0, sigma^2 I) noise of ``shape``, sigma = gamma * mean_norm."""
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    return gamma * mean_norm * rng.normal(shape)


def layerwise_stability(model: MoEClassifier, dataset, spec: PerturbationSpec,
                        seed: int) -> list[StabilityCell]:
    """Mean and quantiles of per-token Jaccard for every (layer, gamma) cell,
    layer-major in the order of ``spec.gamma_levels``.

    Noise enters at one block input at a time, everything else stays clean,
    and the comparison is made at the perturbed layer's own selection.
    ``seed`` keys the input noise and the router draws.  A pass perturbed at
    layer L repeats the clean pass before L, so it starts from a prefix: the
    clean pass's input to L plus the noise.  No later block feeds back into
    L's selection, so it only routes layer L.  Every pass at layer L
    replays the clean pass's router draw there, so that draw is made once
    for all of them (one layer's draw held at a time).
    """
    base = RngStream(seed)
    route = base.derive("route")
    x = dataset.features
    block_inputs: list[np.ndarray] = []
    with T.no_grad():
        _, clean = model.forward(x, "eval", rng=route,
                                 block_inputs=block_inputs)
    mean_norms = [float(np.linalg.norm(h, axis=1).mean()) for h in block_inputs]
    cells = []
    for layer in range(len(model.blocks)):
        # Common random numbers: a layer derives its noise from ``route`` by
        # its own index, so this draw has the bits the clean pass routed the
        # layer with, and every pass perturbed at the layer replays it.
        held = {layer: model.layer_noise(layer, route, len(x), "eval")}
        for gi, gamma in enumerate(spec.gamma_levels):
            values = []
            for rep in range(spec.repeats):
                noise = perturbation_noise(block_inputs[layer].shape, gamma,
                                           mean_norms[layer],
                                           base.derive("noise", layer, gi, rep))
                prefix = Prefix(layer, block_inputs[layer] + noise)
                with T.no_grad():
                    _, perturbed = model.forward(
                        x, "eval", prefix=prefix, route_only=True,
                        router_noise=held)
                values.append(jaccard_rows(clean[layer].selection,
                                           perturbed.selection))
            j = np.concatenate(values)
            q10, q50, q90 = np.quantile(j, (0.10, 0.50, 0.90)).tolist()
            cells.append(StabilityCell(
                layer=layer, gamma=gamma, mean_jaccard=float(j.mean()),
                q10=q10, q50=q50, q90=q90))
        del held                     # free it before the next layer's draw
    return cells


def sensitivity_ranking(cells: list[StabilityCell], gamma: float) -> list[int]:
    """Layers ordered most brittle first: ascending mean Jaccard at noise
    level ``gamma``, ties broken by layer index."""
    return [layer for _, layer in sorted((c.mean_jaccard, c.layer)
                                         for c in cells if c.gamma == gamma)]


def fixed_temperature_layer_sweep(model: MoEClassifier, dataset, t_grid,
                                  layers, seed: int) -> list[dict]:
    """Accuracy and ECE with one layer at a time swapped to sampled routing
    at a fixed temperature.  Every other layer keeps the checkpoint's own
    router, so it is deterministic only where that router is MAP.

    The blocks before the swapped layer and before the first stochastic
    block are MAP and untouched by the swap, so, once per layer, they run
    as a prefix that every temperature's pass starts from; each block
    derives its stream by its own index, so the rows are those of whole
    passes."""
    rows = []
    base = RngStream(seed)
    first = model.stochastic_blocks()[:1]
    for layer in layers:
        blk = model.blocks[layer]
        original = blk.moe.router
        prefix = model.prefix(dataset.features, min([layer] + first))
        for t in t_grid:
            settings = replace(original.settings, global_temperature=float(t))
            blk.moe.router = TempScaleRouter(original.w_r, original.top_k,
                                             settings)
            try:
                with T.no_grad():
                    logits, _ = model.forward(
                        dataset.features, "eval",
                        rng=base.derive("sweep", layer, f"{t!r}"),
                        prefix=prefix)
                    probs = T.softmax_last(logits.data)
            finally:
                blk.moe.router = original
            rep = calibration_report(probs, dataset.labels)
            rows.append({"layer": layer, "temperature": float(t),
                         "accuracy": rep.accuracy, "ece": rep.ece})
    return rows
