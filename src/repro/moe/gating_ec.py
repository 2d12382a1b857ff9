"""Expert-choice routing (Zhou et al., cited in paper Section 8).

Instead of tokens choosing their top-k experts, each expert chooses
the top-C tokens by affinity — guaranteeing perfectly balanced expert
workloads by construction (no capacity overflow, no auxiliary loss
needed).  The paper lists this as one of the orthogonal MoE-algorithm
directions its system composes with; implementing it behind the same
:class:`~repro.moe.gating.GateOutput` interface demonstrates exactly
that composability: the MoE layer, the compression transport, the
profiler and the scheduler all work unchanged.

Routing is emitted in :class:`GateOutput`'s *flat* sparse form: the
selection ``chosen[e, c] = t`` flattens (expert-major, slot order
within each expert) into aligned ``(N,)`` token/expert/slot index
arrays plus a differentiable ``(N,)`` tensor of affinities — the same
index-based representation :class:`~repro.moe.gating.TopKGate` emits
token-major, so ``dispatch_mode="sparse"`` covers this gate too and
the dense ``(T, E, C)`` einsum operands exist only as lazy
densifications for the reference backend.  A token selected by
several experts appears once per selecting expert; every ``(expert,
slot)`` destination holds exactly one token.  The routing plan comes
from :func:`~repro.moe.routing.plan_from_indices`, the same builder
degraded top-k routings use; on these already expert-major arrays its
stable sort is the identity permutation.
"""

from __future__ import annotations

import numpy as np

from ..cluster.costmodel import expert_capacity
from ..nn import functional as F
from ..nn.modules import Linear, Module
from ..nn.tensor import Tensor, is_inference
from .gating import GateOutput
from .routing import plan_from_indices


class ExpertChoiceGate(Module):
    """Experts pick tokens: guaranteed-balanced routing."""

    def __init__(
        self,
        model_dim: int,
        num_experts: int,
        rng: np.random.Generator,
        capacity_factor: float = 1.0,
        top_k: int = 2,
    ):
        super().__init__()
        if num_experts < 1:
            raise ValueError(f"num_experts must be >= 1, got {num_experts}")
        if capacity_factor <= 0:
            raise ValueError(
                f"capacity_factor must be positive, got {capacity_factor}"
            )
        self.num_experts = num_experts
        self.capacity_factor = capacity_factor
        #: Average experts per token the capacity budget allows
        #: (kept as ``top_k`` for interface parity with TopKGate).
        self.top_k = top_k
        self.wg = Linear(model_dim, num_experts, rng, bias=False)

    def capacity(self, num_tokens: int) -> int:
        """Tokens each expert selects: paper Eq. (1)
        (:func:`~repro.cluster.costmodel.expert_capacity`)."""
        return expert_capacity(
            num_tokens, self.num_experts, self.capacity_factor, self.top_k
        )

    def forward(self, tokens: Tensor) -> GateOutput:
        if tokens.ndim != 2:
            raise ValueError(
                f"gate expects (tokens, model_dim), got shape {tokens.shape}"
            )
        num_tokens = tokens.shape[0]
        cap = self.capacity(num_tokens)

        probs = F.softmax(self.wg(tokens), axis=-1)  # (T, E)
        # Perfectly balanced by construction -> aux loss constant 1
        # (wired to the gate's tape so an empty backward still works;
        # the forward-only path skips the tape-keeping sum).
        if is_inference():
            aux = Tensor(np.float32(1.0))
        else:
            aux = Tensor(np.float32(1.0)) + (probs.sum() * 0.0)

        if cap == 0:
            # Zero tokens: empty flat routing.
            token_ids = expert_ids = slot_ids = np.zeros(0, dtype=np.int64)
        else:
            # Each expert picks its top-cap tokens by affinity.  Flatten
            # expert-major: assignment n = (expert n // cap, slot n % cap).
            affinity = probs.data.T  # (E, T)
            chosen = F.top_k_indices(affinity, cap, axis=-1)  # (E, cap)
            token_ids = chosen.reshape(-1)  # (N,) with N = E * cap
            expert_ids = np.repeat(np.arange(self.num_experts), cap)
            slot_ids = np.tile(np.arange(cap), self.num_experts)

        # Combine weights: each selected pair's (differentiable)
        # affinity probs[t, e], gathered along the tape.
        gate_weights = probs[token_ids, expert_ids]  # (N,)
        # The flat arrays are structurally expert-major sorted with no
        # drops, so the plan's grouped permutation is the identity.
        plan = plan_from_indices(
            expert_ids, slot_ids, token_ids,
            self.num_experts, num_tokens, cap,
        )
        return GateOutput(
            plan=plan,
            aux_loss=aux,
            dropped_tokens=int(num_tokens - len(np.unique(token_ids))),
            expert_indices=expert_ids,
            gate_weights=gate_weights,
            token_indices=token_ids,
        )
