"""Top-k gating with expert capacity (GShard-style).

The gate is a small learned linear layer followed by a softmax (paper
Section 2.1).  Each token selects its top-k experts; per-expert intake
is capped at the capacity of paper Eq. (1)
(:func:`~repro.cluster.costmodel.expert_capacity`), with overflow
tokens dropped (their combine weight is zero, so they pass through
the MoE layer as zeros — exactly GShard's behaviour).  Routing
*decisions* are discrete and not differentiated; the combine
*weights* carry gradient through the softmax, and the standard
load-balancing auxiliary loss keeps the router from collapsing onto
few experts.

Slot assignment runs through the fused routing kernel
(:func:`~repro.moe.routing.route_fused`): one stable argsort over the
flat ``(k*T,)`` expert ids yields the capacity slots, the drop mask,
per-expert counts *and* the expert-major permutation every downstream
consumer needs, packaged as a :class:`~repro.moe.routing.RoutingPlan`.
The ordering is identical to GShard's greedy FCFS rule — all first
choices in token order, then all second choices — so routing results
are bit-for-bit the same as the reference loop's (and as the
``O(k * T * E)`` one-hot cumsum formulation the parity suite keeps as
a test helper).

:class:`GateOutput` holds that plan — the one routing record every
consumer reads — beside the ``(T, k)`` expert indices and ``(T, k)``
differentiable combine weights.  Nothing here builds GShard's dense
``(T, E, C)`` masks; the test suite's dense reference derives them
from the plan (``tests/moe/legacy_dense.py``).
Dead-expert degradation masks the plan's expert-major arrays rather
than rebuilding them, so every routing, degraded or not, is read in
the one order both combines (single-process and expert-parallel D2)
add up a token's contributions in.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..cluster.costmodel import check_routing, expert_capacity
from ..nn import functional as F
from ..nn.modules import Linear, Module
from ..nn.tensor import Tensor, is_inference
from .placement import checked_ids
from .routing import RoutingPlan, route_fused


class GateOutput:
    """Everything the MoE layer needs to route one batch of tokens.

    The routing itself is ``plan``, the batch's
    :class:`~repro.moe.routing.RoutingPlan`: every consumer (grouped
    dispatch and combine, expert-parallel C1 and D2) reads it, and
    ``expert_load``, ``capacity``, ``slot_indices``,
    ``dropped_tokens``, ``num_tokens`` and ``num_experts`` are views
    of it.  Beside the plan the output holds the gate's token-major
    choices — row t holds token t's k choices: ``expert_indices`` is
    ``(T, k)`` (a plan slot of ``-1`` marks a dropped assignment) and
    ``gate_weights`` a differentiable ``(T, k)`` tensor of combine
    weights (zero at dropped entries).
    """

    def __init__(
        self,
        *,
        plan: RoutingPlan,
        aux_loss: Tensor,
        expert_indices: np.ndarray,
        gate_weights: Tensor,
    ):
        self.plan = plan
        self.aux_loss = aux_loss
        self.expert_indices = expert_indices
        self.gate_weights = gate_weights

    # -- views of the plan ---------------------------------------------
    @property
    def num_tokens(self) -> int:
        """Tokens routed in this batch."""
        return self.plan.num_tokens

    @property
    def num_experts(self) -> int:
        return self.plan.num_experts

    @property
    def capacity(self) -> int:
        return self.plan.capacity

    @property
    def slot_indices(self) -> np.ndarray:
        """(T, k) slot of every assignment (``-1`` = dropped)."""
        return self.plan.slot_indices

    @property
    def expert_load(self) -> np.ndarray:
        """(E,) occupied slots per expert."""
        return self.plan.expert_load

    @property
    def dropped_tokens(self) -> int:
        """Assignments not routed (capacity drops and dead experts)."""
        return self.plan.dropped_assignments

    @property
    def drop_fraction(self) -> float:
        """Dropped assignments per token (0 when capacity suffices)."""
        if self.num_tokens == 0:
            return 0.0
        return self.dropped_tokens / self.num_tokens

    # -- graceful degradation ------------------------------------------
    def with_experts_dropped(self, dead_experts) -> "GateOutput":
        """Routing with every assignment to ``dead_experts`` dropped.

        This is the numerical substrate's dead-worker degradation: a
        worker lost mid-step takes its expert shards with it, and the
        tokens routed there are handled by the layer's existing
        capacity-drop semantics — slot ``-1``, zero combine weight,
        pass through as zeros.  Each token's weights are then
        *renormalized* over its surviving experts (differentiably,
        through the same masked softmax-renorm the gate itself uses),
        so a token that keeps one of its two experts leans fully on it.

        Returns a new :class:`GateOutput` sharing the untouched index
        arrays.  Its plan is this one with the dead experts' rows
        masked out of the grouped arrays (what is left keeps the
        expert-major order), their segments zeroed and their slots
        set to ``-1``; the per-(expert, choice) counts stay the
        pre-drop ones.  An empty ``dead_experts`` returns ``self``.

        Dropping is per-forward and stateless: recovery (see
        :class:`repro.faults.recovery.RecoveryController`) does not
        "undo" a drop — once the lost experts are re-instantiated on
        survivors, callers simply stop passing them here and the gate
        output returns to the full expert count with no renorm at all.
        """
        dead = frozenset(
            checked_ids(dead_experts, self.num_experts, "dead expert")
        )
        if not dead:
            return self
        dead_mask = np.zeros(self.num_experts, dtype=bool)
        dead_mask[list(dead)] = True
        hit = dead_mask[self.expert_indices] & (self.slot_indices >= 0)
        slot_indices = np.where(hit, -1, self.slot_indices)
        survives = Tensor(
            ((self.slot_indices >= 0) & ~hit).astype(np.float32)
        )
        masked = self.gate_weights * survives
        denom = masked.sum(axis=-1, keepdims=True) + 1e-9
        weights = masked / denom
        plan = self.plan
        live = ~dead_mask[plan.grouped_expert_ids]
        return GateOutput(
            plan=dataclasses.replace(
                plan,
                slot_indices=slot_indices,
                grouped_token_ids=plan.grouped_token_ids[live],
                grouped_expert_ids=plan.grouped_expert_ids[live],
                grouped_choice_ids=plan.grouped_choice_ids[live],
                segment_counts=np.where(dead_mask, 0, plan.segment_counts),
            ),
            aux_loss=self.aux_loss,
            expert_indices=self.expert_indices,
            gate_weights=weights,
        )


class TopKGate(Module):
    """Learned router: ``softmax(x W_g)`` with top-k selection."""

    def __init__(
        self,
        model_dim: int,
        num_experts: int,
        rng: np.random.Generator,
        top_k: int = 2,
        capacity_factor: float = 1.0,
    ):
        super().__init__()
        check_routing(top_k, capacity_factor)
        if top_k > num_experts:
            raise ValueError(
                f"top_k must be in [1, {num_experts}], got {top_k}"
            )
        self.num_experts = num_experts
        self.top_k = top_k
        self.capacity_factor = capacity_factor
        self.wg = Linear(model_dim, num_experts, rng, bias=False)

    def capacity(self, num_tokens: int) -> int:
        """Paper Eq. (1) with B*L folded into ``num_tokens``
        (:func:`~repro.cluster.costmodel.expert_capacity`)."""
        return expert_capacity(
            num_tokens, self.num_experts, self.capacity_factor, self.top_k
        )

    def forward(self, tokens: Tensor) -> GateOutput:
        """Route a flat (num_tokens, model_dim) tensor.

        Returns the fused routing plan with (T, k) indices and
        weights.
        """
        if tokens.ndim != 2:
            raise ValueError(
                f"gate expects (tokens, model_dim), got shape {tokens.shape}"
            )
        cap = self.capacity(tokens.shape[0])
        probs = F.softmax(self.wg(tokens), axis=-1)

        # Discrete routing on raw values.
        raw = probs.data
        top_idx = F.top_k_indices(raw, self.top_k, axis=-1)  # (T, k)

        # One fused pass: capacity slots (greedily in token order per
        # expert, with priority to lower-ranked choices — GShard
        # processes the k-th choice after all (k-1)-th choices), the
        # drop count, per-expert fill, AND the expert-major
        # permutation every downstream consumer reuses.
        plan = route_fused(top_idx, self.num_experts, cap)
        kept = plan.slot_indices >= 0

        # Combine weights: the gate probability of each kept
        # assignment, renormalized over the token's kept experts.
        gathered = F.take_along_axis(probs, top_idx, axis=-1)  # (T, k)
        kept_f = kept.astype(np.float32)
        denom = (gathered * Tensor(kept_f)).sum(axis=-1, keepdims=True) + 1e-9
        norm = gathered * Tensor(kept_f) / denom  # (T, k), 0 at dropped

        # First-choice counts fall out of the plan's fused per-
        # (expert, choice) counts — no separate bincount pass.  The
        # auxiliary loss only exists to regularize training; the
        # forward-only path skips it outright (gradient bookkeeping
        # for a loss nobody will backprop).
        if is_inference():
            aux = Tensor(np.float32(0.0))
        else:
            aux = load_balancing_loss(
                probs, plan.choice_counts[:, 0], self.num_experts
            )
        return GateOutput(
            plan=plan,
            aux_loss=aux,
            expert_indices=top_idx,
            gate_weights=norm,
        )


def load_balancing_loss(
    probs: Tensor, first_choice_counts: np.ndarray, num_experts: int
) -> Tensor:
    """GShard / Switch auxiliary loss: ``E * sum_e m_e * c_e``.

    ``m_e`` is the mean gate probability of expert e over the batch
    (differentiable); ``c_e`` the fraction of tokens whose first
    choice is e (discrete), from the ``(E,)`` ``first_choice_counts``
    (e.g. a :attr:`~repro.moe.routing.RoutingPlan.choice_counts`
    column).  Minimized at uniform routing where it equals 1.
    """
    num_tokens = probs.shape[0]
    if num_tokens == 0:
        # No tokens: a zero loss still wired to the gate's tape.
        return probs.sum() * 0.0
    counts = first_choice_counts.astype(np.float32)
    frac = counts / max(num_tokens, 1)
    mean_probs = probs.mean(axis=0)  # (E,)
    return (mean_probs * Tensor(frac)).sum() * float(num_experts)
