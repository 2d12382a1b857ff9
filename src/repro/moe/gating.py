"""Top-k gating with expert capacity (GShard-style).

The gate is a small learned linear layer followed by a softmax (paper
Section 2.1).  Each token selects its top-k experts; per-expert intake
is capped at the capacity ``C = ceil(f * k * B * L / E)`` of paper
Eq. (1), with overflow tokens dropped (their combine weight is zero,
so they pass through the MoE layer as zeros — exactly GShard's
behaviour).  Routing *decisions* are discrete and not differentiated;
the combine *weights* carry gradient through the softmax, and the
standard load-balancing auxiliary loss keeps the router from
collapsing onto few experts.

Slot assignment runs through the fused routing kernel
(:func:`~repro.moe.routing.route_fused`): one stable argsort over the
flat ``(k*T,)`` expert ids yields the capacity slots, the drop mask,
per-expert counts *and* the expert-major permutation every downstream
consumer needs, cached on :class:`GateOutput` as a
:class:`~repro.moe.routing.RoutingPlan`.  The ordering is identical
to GShard's greedy FCFS rule — all first choices in token order, then
all second choices — so routing results are bit-for-bit the same as
the reference loop's (and as the ``O(k * T * E)`` one-hot cumsum
formulation the parity suite keeps as a test helper).

:class:`GateOutput` carries the routing natively in *sparse* index
form (``(T, k)`` expert/slot indices plus ``(T, k)`` differentiable
combine weights); the dense GShard ``(T, E, C)`` masks used by the
reference einsum backend are materialized lazily on first access, so
the sparse hot path never pays for them.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import functional as F
from ..nn.modules import Linear, Module
from ..nn.tensor import Tensor, is_inference
from .routing import RoutingPlan, plan_from_indices, route_fused


class GateOutput:
    """Everything the MoE layer needs to route one batch of tokens.

    Two equivalent representations of the same routing decision:

    * sparse — integer index arrays naming each routing assignment
      plus a differentiable tensor of combine weights, in one of two
      layouts (below);
    * dense — ``dispatch_mask`` is a raw ``(T, E, C)`` 0/1 array and
      ``combine_weights`` the same shape carrying the differentiable
      gate probabilities (GShard's einsum operands).

    The sparse layouts:

    * **token-major** ``(T, k)`` — row t holds token t's k choices:
      ``expert_indices``/``slot_indices`` are ``(T, k)`` arrays (slot
      ``-1`` marks a dropped assignment) and ``gate_weights`` a
      differentiable ``(T, k)`` tensor of combine weights (zero at
      dropped entries).  This is :class:`TopKGate`'s natural form.
    * **flat** ``(N,)`` — one entry per assignment with no per-token
      structure: ``expert_indices``/``slot_indices``/``token_indices``
      are aligned ``(N,)`` arrays and ``gate_weights`` a
      differentiable ``(N,)`` tensor.  Gates whose assignment count
      varies per token — expert-choice, where each *expert* picks its
      top-C tokens and a token may appear 0..E times — emit this form
      (``token_indices`` is None in the token-major layout, where the
      row index is the token).

    Every gate now constructs a sparse form; the dense arrays are
    densified lazily on first property access, so the index-based hot
    path never pays for them and the dense einsum backend remains a
    pure reference path.
    """

    def __init__(
        self,
        *,
        aux_loss: Tensor,
        expert_load: np.ndarray,
        dropped_tokens: int,
        capacity: int,
        dispatch_mask: Optional[np.ndarray] = None,
        combine_weights: Optional[Tensor] = None,
        expert_indices: Optional[np.ndarray] = None,
        slot_indices: Optional[np.ndarray] = None,
        token_indices: Optional[np.ndarray] = None,
        gate_weights: Optional[Tensor] = None,
        num_tokens: Optional[int] = None,
        num_experts: Optional[int] = None,
        plan: Optional[RoutingPlan] = None,
    ):
        self.aux_loss = aux_loss
        self.expert_load = expert_load
        self.dropped_tokens = dropped_tokens
        self.capacity = capacity
        self.expert_indices = expert_indices
        self.slot_indices = slot_indices
        self.token_indices = token_indices
        self.gate_weights = gate_weights
        self._dispatch_mask = dispatch_mask
        self._combine_weights = combine_weights
        self._plan = plan
        if expert_indices is not None:
            if num_experts is None:
                raise ValueError("sparse GateOutput needs num_experts")
            if expert_indices.ndim == 1:
                if token_indices is None or num_tokens is None:
                    raise ValueError(
                        "flat (N,) sparse routing needs token_indices "
                        "and num_tokens"
                    )
                self._num_tokens = num_tokens
            else:
                self._num_tokens = (
                    num_tokens
                    if num_tokens is not None
                    else expert_indices.shape[0]
                )
            self._num_experts = num_experts
        elif dispatch_mask is not None:
            self._num_tokens = dispatch_mask.shape[0]
            self._num_experts = dispatch_mask.shape[1]
        else:
            raise ValueError(
                "GateOutput needs either a dense dispatch_mask or "
                "sparse indices plus num_experts"
            )

    # -- bookkeeping ---------------------------------------------------
    @property
    def num_tokens(self) -> int:
        """Tokens routed in this batch."""
        return self._num_tokens

    @property
    def num_experts(self) -> int:
        return self._num_experts

    @property
    def has_sparse(self) -> bool:
        """Whether index-based routing fields are available."""
        return self.expert_indices is not None

    @property
    def plan(self) -> RoutingPlan:
        """The routing's :class:`~repro.moe.routing.RoutingPlan`.

        Gates that route through :func:`~repro.moe.routing.route_fused`
        attach the plan at construction; otherwise (and for degraded
        routings from :meth:`with_experts_dropped`, whose slot holes
        break the fused kernel's FCFS-prefix invariant) it is built
        lazily — one stable argsort — from the actual index arrays and
        cached.  Every ordering consumer (grouped dispatch and combine,
        dense mask densification, the chunked layer path,
        expert-parallel C1) reads slices of this one permutation.
        """
        if self._plan is None:
            if not self.has_sparse:
                raise ValueError(
                    "dense-only GateOutput carries no routing plan"
                )
            self._plan = plan_from_indices(
                self.expert_indices,
                self.slot_indices,
                self.token_indices,
                self._num_experts,
                self._num_tokens,
                self.capacity,
            )
        return self._plan

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
        pass through as zeros.  Token-major (top-k) routing
        additionally *renormalizes* each token's weights over its
        surviving experts (differentiably, through the same masked
        softmax-renorm the gate itself uses), so a token that keeps
        one of its two experts leans fully on it; flat expert-choice
        routing carries raw unnormalized affinities, so there the dead
        entries are only zeroed, matching its combine semantics.

        Returns a new :class:`GateOutput` sharing the untouched index
        arrays; dense masks re-densify lazily from the updated
        routing.  An empty ``dead_experts`` returns ``self``.

        Dropping is per-forward and stateless: recovery (see
        :class:`repro.faults.recovery.RecoveryController`) does not
        "undo" a drop — once the lost experts are re-instantiated on
        survivors, callers simply stop passing them here and the gate
        output returns to the full expert count with no renorm at all.
        """
        dead = frozenset(int(e) for e in dead_experts)
        if not dead:
            return self
        if not self.has_sparse:
            raise ValueError(
                "with_experts_dropped needs sparse routing indices"
            )
        for e in dead:
            if not 0 <= e < self._num_experts:
                raise ValueError(
                    f"dead expert {e} out of range [0, {self._num_experts})"
                )
        dead_mask = np.zeros(self._num_experts, dtype=bool)
        dead_mask[list(dead)] = True
        hit = dead_mask[self.expert_indices] & (self.slot_indices >= 0)
        newly_dropped = int(hit.sum())
        slot_indices = np.where(hit, -1, self.slot_indices)
        expert_load = self.expert_load.copy()
        expert_load[dead_mask] = 0
        survives = Tensor(
            ((self.slot_indices >= 0) & ~hit).astype(np.float32)
        )
        if self.expert_indices.ndim == 2:  # token-major: renormalize
            masked = self.gate_weights * survives
            denom = masked.sum(axis=-1, keepdims=True) + 1e-9
            weights = masked / denom
        else:  # flat: raw affinities, zero the dead entries
            weights = self.gate_weights * survives
        return GateOutput(
            aux_loss=self.aux_loss,
            expert_load=expert_load,
            dropped_tokens=self.dropped_tokens + newly_dropped,
            capacity=self.capacity,
            expert_indices=self.expert_indices,
            slot_indices=slot_indices,
            token_indices=self.token_indices,
            gate_weights=weights,
            num_tokens=self._num_tokens,
            num_experts=self._num_experts,
        )

    # -- lazy densification --------------------------------------------
    def _kept_coords(self):
        """(token, expert, slot, weight-index) arrays of kept assignments.

        The last element indexes ``gate_weights`` — ``(token, choice)``
        pairs in the token-major layout, flat positions in the flat
        layout — so ``gate_weights.data[w_idx]`` (or the differentiable
        ``gate_weights[w_idx]``) selects each kept assignment's weight
        in either form.  Served from the cached :attr:`plan` — the
        ``np.nonzero`` re-scan this used to do is part of what the
        fused kernel already computed.
        """
        plan = self.plan
        return (
            plan.kept_token_ids,
            plan.kept_expert_ids,
            plan.kept_slot_ids,
            plan.kept_weight_index,
        )

    @property
    def dispatch_mask(self) -> np.ndarray:
        """Raw (T, E, C) 0/1 routing mask (densified on demand)."""
        if self._dispatch_mask is None:
            if is_inference():
                raise RuntimeError(
                    "refusing to densify dispatch_mask under "
                    "inference_mode(): the (T, E, C) masks exist only "
                    "for the dense reference backend; the forward-only "
                    "path must stay on the sparse RoutingPlan"
                )
            token_ids, expert_ids, slot_ids, _ = self._kept_coords()
            mask = np.zeros(
                (self._num_tokens, self._num_experts, self.capacity),
                dtype=np.float32,
            )
            mask[token_ids, expert_ids, slot_ids] = 1.0
            self._dispatch_mask = mask
        return self._dispatch_mask

    @property
    def combine_weights(self) -> Tensor:
        """(T, E, C) differentiable weights (densified on demand).

        The scatter keeps the tape: the dense gradient at each kept
        (t, e, c) coordinate flows back to the corresponding
        ``gate_weights`` entry, exactly as the reference einsum
        formulation propagates it.
        """
        if self._combine_weights is None:
            if is_inference():
                raise RuntimeError(
                    "refusing to densify combine_weights under "
                    "inference_mode(): the (T, E, C) masks exist only "
                    "for the dense reference backend; the forward-only "
                    "path must stay on the sparse RoutingPlan"
                )
            norm = self.gate_weights
            token_ids, expert_ids, slot_ids, w_idx = self._kept_coords()
            shape = (self._num_tokens, self._num_experts, self.capacity)
            data = np.zeros(shape, dtype=np.float32)
            data[token_ids, expert_ids, slot_ids] = norm.data[w_idx]

            def backward(g):
                grad = np.zeros(norm.shape, dtype=np.float32)
                grad[w_idx] = g[token_ids, expert_ids, slot_ids]
                return ((norm, grad),)

            self._combine_weights = norm._make(data, (norm,), backward)
        return self._combine_weights


class TopKGate(Module):
    """Learned router: ``softmax(x W_g)`` with top-k selection."""

    def __init__(
        self,
        model_dim: int,
        num_experts: int,
        rng: np.random.Generator,
        top_k: int = 2,
        capacity_factor: float = 1.0,
        noise_std: float = 0.0,
    ):
        super().__init__()
        if top_k < 1 or top_k > num_experts:
            raise ValueError(
                f"top_k must be in [1, {num_experts}], got {top_k}"
            )
        if capacity_factor <= 0:
            raise ValueError(
                f"capacity_factor must be positive, got {capacity_factor}"
            )
        self.num_experts = num_experts
        self.top_k = top_k
        self.capacity_factor = capacity_factor
        self.noise_std = noise_std
        self.wg = Linear(model_dim, num_experts, rng, bias=False)
        self._rng = rng

    def capacity(self, num_tokens: int) -> int:
        """Paper Eq. (1) with B*L folded into ``num_tokens``.

        Clamped to ``[1, num_tokens]``: a token contributes at most
        one assignment per expert (its top-k experts are distinct), so
        slots beyond ``num_tokens`` can never fill and would only pad
        every (E, C, M) buffer; zero tokens need zero slots.
        """
        if num_tokens < 0:
            raise ValueError(f"num_tokens must be >= 0, got {num_tokens}")
        if num_tokens == 0:
            return 0
        cap = int(
            np.ceil(
                self.capacity_factor * self.top_k * num_tokens / self.num_experts
            )
        )
        return max(min(cap, num_tokens), 1)

    def forward(self, tokens: Tensor, capacity: Optional[int] = None) -> GateOutput:
        """Route a flat (num_tokens, model_dim) tensor.

        Returns sparse (T, k) routing indices/weights; the dense
        (T, E, C) masks densify lazily from them.
        """
        if tokens.ndim != 2:
            raise ValueError(
                f"gate expects (tokens, model_dim), got shape {tokens.shape}"
            )
        if capacity is not None and capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        num_tokens = tokens.shape[0]
        cap = capacity if capacity is not None else self.capacity(num_tokens)

        logits = self.wg(tokens)
        if self.training and self.noise_std > 0:
            noise = self._rng.standard_normal(logits.shape).astype(np.float32)
            logits = logits + Tensor(noise * self.noise_std)
        probs = F.softmax(logits, axis=-1)

        # Discrete routing on raw values.
        raw = probs.data
        top_idx = F.top_k_indices(raw, self.top_k, axis=-1)  # (T, k)

        # One fused pass: capacity slots (greedily in token order per
        # expert, with priority to lower-ranked choices — GShard
        # processes the k-th choice after all (k-1)-th choices), the
        # drop count, per-expert fill, AND the expert-major
        # permutation every downstream consumer reuses.
        plan = route_fused(top_idx, self.num_experts, cap)
        positions = plan.slot_indices
        kept = positions >= 0
        dropped = plan.dropped_assignments
        fill = plan.expert_load

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
                probs,
                None,
                self.num_experts,
                first_choice_counts=plan.choice_counts[:, 0],
            )
        return GateOutput(
            aux_loss=aux,
            expert_load=fill,
            dropped_tokens=dropped,
            capacity=cap,
            expert_indices=top_idx,
            slot_indices=positions,
            gate_weights=norm,
            num_tokens=num_tokens,
            num_experts=self.num_experts,
            plan=plan,
        )


def load_balancing_loss(
    probs: Tensor,
    first_choice: Optional[np.ndarray],
    num_experts: int,
    first_choice_counts: Optional[np.ndarray] = None,
) -> Tensor:
    """GShard / Switch auxiliary loss: ``E * sum_e m_e * c_e``.

    ``m_e`` is the mean gate probability of expert e over the batch
    (differentiable); ``c_e`` the fraction of tokens whose first
    choice is e (discrete).  Minimized at uniform routing where it
    equals 1.  The per-expert first-choice counts may be passed in
    precomputed (``first_choice_counts``, e.g. a
    :attr:`~repro.moe.routing.RoutingPlan.choice_counts` column) in
    place of the raw ``first_choice`` id array.
    """
    num_tokens = probs.shape[0]
    if num_tokens == 0:
        # No tokens: a zero loss still wired to the gate's tape.
        return probs.sum() * 0.0
    if first_choice_counts is None:
        first_choice_counts = np.bincount(
            first_choice, minlength=num_experts
        )
    counts = first_choice_counts.astype(np.float32)
    frac = counts / max(num_tokens, 1)
    mean_probs = probs.mean(axis=0)  # (E,)
    return (mean_probs * Tensor(frac)).sum() * float(num_experts)
