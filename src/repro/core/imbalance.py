"""Dynamic routing imbalance (paper Section 2.1, "Dynamic workloads").

The gate's learned routing makes expert loads uneven and time-varying;
the paper notes this is why the capacity mechanism (Eq. 1) exists, and
attributes FasterMoE's BERT-Large-MoE OOM to "improper handling of
imbalanced tokens".  This module models the phenomenon for the
step-time simulator:

* expert popularity follows a Zipf distribution with skew ``s``
  (s = 0 is perfectly balanced; real gates early in training sit
  around s ~ 0.5-1);
* systems that enforce capacity (GShard/Tutel/ScheMoE) clip the
  hottest expert's intake at ``f`` times the balanced load — their
  step time and memory are insensitive to skew beyond that, at the
  price of dropped tokens;
* systems without capacity (FasterMoE) process every routed token:
  the synchronized step waits for the hottest expert's GPU and the
  receive buffers grow with the skew.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RoutingSkew:
    """Zipf-shaped expert popularity."""

    zipf_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.zipf_s >= 0:
            raise ValueError(f"zipf_s must be >= 0, got {self.zipf_s}")

    def expert_shares(self, num_experts: int) -> np.ndarray:
        """Fraction of all routed tokens each expert attracts."""
        if num_experts < 1:
            raise ValueError("num_experts must be >= 1")
        ranks = np.arange(1, num_experts + 1, dtype=np.float64)
        weights = ranks ** (-self.zipf_s)
        return weights / weights.sum()

    def hot_expert_ratio(self, num_experts: int) -> float:
        """Hottest expert's load relative to the balanced load."""
        shares = self.expert_shares(num_experts)
        return float(shares.max() * num_experts)

    def load_factor(
        self,
        num_experts: int,
        capacity_factor: float,
        enforce_capacity: bool,
    ) -> float:
        """Slowdown of the expert-computation task under this skew.

        Expert parallelism synchronizes at the combine A2A, so the
        step waits for the GPU hosting the hottest expert.  With
        capacity enforced, intake is clipped at ``capacity_factor``
        times the balanced load (Eq. 1); without it the full Zipf
        head lands on one GPU.
        """
        ratio = self.hot_expert_ratio(num_experts)
        if enforce_capacity:
            return min(ratio, capacity_factor)
        return ratio

    def dropped_fraction(
        self, num_experts: int, capacity_factor: float
    ) -> float:
        """Fraction of routed tokens a capacity system drops.

        Each expert keeps at most ``capacity_factor / num_experts`` of
        all tokens; anything above the cap is dropped (GShard
        semantics).
        """
        shares = self.expert_shares(num_experts)
        cap = capacity_factor / num_experts
        kept = np.minimum(shares, cap).sum()
        return float(1.0 - kept)

    def buffer_factor(self, num_experts: int) -> float:
        """Worst-case receive-buffer growth of a capacity-free system
        relative to balanced buffers."""
        return self.hot_expert_ratio(num_experts)


BALANCED = RoutingSkew(0.0)
