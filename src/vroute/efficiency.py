"""Analytic parameter and multiply-accumulate cost model.

Counts what each routing scheme adds on top of a base model when applied
to L modified layers: weight-space sampling stores S-1 extra copies of the
router projection, while the inference-net variants pay once for a small
trunk plus heads.  Counts are MACs (one per multiply-add); a FLOP count is
twice the MAC count, so the percentages are the same in both units.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

VARIANT_ORDER = ("weight_space", "vglr_mf", "vglr_fc", "vtsr")


@dataclass
class ArchSpec:
    layers: int                      # modified MoE layers
    num_experts: int
    hidden_dim: int
    inference_width: int             # trunk width of the inference nets
    samples: int                     # Monte Carlo samples at inference
    base_active_params: float = 800e6   # Granite-3B-MoE's base costs
    base_macs_per_token: float = 800e6

    def __post_init__(self):
        if min(self.layers, self.num_experts, self.hidden_dim,
               self.inference_width, self.samples) < 1:
            raise ValueError("all architecture counts must be >= 1")
        if not all(0 < c < math.inf for c in (self.base_active_params,
                                              self.base_macs_per_token)):
            raise ValueError("base costs must be finite and > 0")
        if self.inference_width > self.hidden_dim:
            raise ValueError("inference width must not exceed the hidden dim")


def granite_preset() -> ArchSpec:
    """Granite-3B-MoE deployment dimensions (800M active parameters)."""
    return ArchSpec(layers=10, num_experts=40, hidden_dim=1536,
                    inference_width=384, samples=35)


def _tri(n: int) -> int:
    return n * (n + 1) // 2


def _costs(spec: ArchSpec, variant: str) -> tuple[int, int]:
    """(added parameters, added MACs per token) of one variant.

    Each added weight costs one MAC per token, a bias none; ``extra`` is
    the per-token work on top of that.
    """
    l, n, d = spec.layers, spec.num_experts, spec.hidden_dim
    h, s = spec.inference_width, spec.samples
    if variant == "weight_space":
        # S-1 stored copies of the D x N router projection; a token runs
        # all S projections, the base one included.
        params, extra = l * (s - 1) * d * n, l * d * n
    elif variant == "vglr_mf":
        # Trunk D*H, mean and log-sigma heads of H*N each; S noise samples
        # of N logits.
        params, extra = l * (d * h + 2 * h * n), l * s * n
    elif variant == "vglr_fc":
        # Trunk D*H, mean head H*N, Cholesky head H*N(N+1)/2; S triangular
        # spreads.
        params, extra = l * (d * h + h * n + h * _tri(n)), l * s * _tri(n)
    elif variant == "vtsr":
        # Trunk D*H plus a scalar temperature head of H, and their H + 1
        # biases, which cost no MAC; N logit divisions.
        params, extra = l * (d * h + h), l * n
        return params + l * (h + 1), params + extra
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return params, params + extra


def macs_per_token(spec: ArchSpec, variant: str) -> int:
    """Added multiply-accumulates per token."""
    return _costs(spec, variant)[1]


def added_params(spec: ArchSpec, variant: str) -> int:
    return _costs(spec, variant)[0]


@dataclass
class CostRow:
    variant: str
    params: int
    params_pct: float
    macs_per_token: int
    macs_pct: float


@dataclass
class CostReport:
    spec: ArchSpec
    rows: list[CostRow]


def cost_report(spec: ArchSpec) -> CostReport:
    rows = []
    for v in VARIANT_ORDER:
        p, m = added_params(spec, v), macs_per_token(spec, v)
        rows.append(CostRow(
            variant=v, params=p,
            params_pct=100.0 * p / spec.base_active_params,
            macs_per_token=m,
            macs_pct=100.0 * m / spec.base_macs_per_token))
    return CostReport(spec=spec, rows=rows)

