"""Dispatch and combine: the data movement the A2A collectives carry.

GShard formulates both sides of expert parallelism as einsums over the
gate's (tokens, experts, capacity) masks; the *dense* backend below
reproduces that exactly.  In distributed execution the (E, C, M)
dispatched tensor is what the first all-to-all ships between GPUs and
the combined result is what the second all-to-all brings home (paper
Fig. 2); numerically the single-process computation is identical to
the synchronized multi-GPU computation, which is why the convergence
experiments can run without physical GPUs.

The dense einsums contract over a one-hot (T, E, C) mask — an
``O(T * E * C * M)`` computation for what is really an ``O(T * k * M)``
data movement.  They stay as the executable reference semantics.

The production form is *capacity-free*: :func:`dispatch_grouped` sorts
the kept assignments by expert (a stable argsort — the sort
permutation) and gathers the token rows into contiguous per-expert
segments, the layout :meth:`~repro.moe.experts.Experts.run_grouped`
consumes via :func:`~repro.nn.tensor.segment_matmul`.  No
``(E, C, M)`` buffer, no scatter into capacity slots, no empty-slot
padding — memory traffic is ``O(N * M)`` in the routed assignment
count however large the capacity factor grows, the same move FastMoE
made when it replaced GShard's einsum dispatch with index-based
scatter/gather kernels.  :func:`combine_grouped` is its adjoint-
structured inverse: weight and scatter-add the flat expert output
rows straight into their owning tokens.  Token-major top-k and flat
expert-choice routings both work unchanged (see
:func:`_kept_assignments`); the grouped pair matches the dense
einsums in outputs and gradients (`tests/moe/test_dispatch_parity.py`).

:func:`dispatch_grouped` accepts the gate's cached
:class:`~repro.moe.routing.RoutingPlan` (``plan=``): the fused routing
kernel already computed the expert-major permutation in its single
sort, so passing the plan skips the ``np.nonzero`` re-scan and the
per-call ``argsort``/``bincount`` entirely.  Omitting it re-derives
the arrays from the index arguments, which the parity suites use as
the independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..nn.tensor import Tensor, einsum, gather, scatter_add

#: Valid values of the MoE layer's ``dispatch_mode`` switch.
DISPATCH_MODES = ("dense", "sparse")


def dispatch(tokens: Tensor, dispatch_mask: np.ndarray) -> Tensor:
    """Route (T, M) tokens to (E, C, M) expert inputs (dense einsum).

    ``dispatch_mask`` is the gate's raw 0/1 (T, E, C) array; slots with
    no token stay zero (padding the expert batch to capacity, as the
    real system does so tensor shapes are static).
    """
    if tokens.ndim != 2:
        raise ValueError(f"tokens must be (T, M), got {tokens.shape}")
    if dispatch_mask.ndim != 3 or dispatch_mask.shape[0] != tokens.shape[0]:
        raise ValueError(
            f"mask {dispatch_mask.shape} incompatible with tokens "
            f"{tokens.shape}"
        )
    return einsum("tm,tec->ecm", tokens, Tensor(dispatch_mask))


def combine(expert_outputs: Tensor, combine_weights: Tensor) -> Tensor:
    """Merge (E, C, M) expert outputs into (T, M) tokens (dense einsum).

    ``combine_weights`` carries the differentiable gate probabilities;
    a token dropped by capacity receives all-zero output (GShard
    semantics — the residual connection around the MoE layer keeps its
    representation alive).
    """
    if expert_outputs.ndim != 3:
        raise ValueError(
            f"expert outputs must be (E, C, M), got {expert_outputs.shape}"
        )
    return einsum("ecm,tec->tm", expert_outputs, combine_weights)


def _kept_assignments(
    expert_indices: np.ndarray,
    slot_indices: np.ndarray,
    token_indices=None,
):
    """Coordinate arrays of the non-dropped (slot >= 0) assignments.

    Accepts both sparse routing layouts (see
    :class:`~repro.moe.gating.GateOutput`):

    * token-major ``(T, k)`` index arrays (``token_indices`` unused —
      the row *is* the token);
    * flat ``(N,)`` arrays with an explicit aligned ``token_indices``.

    Returns ``(token_ids, weight_index, expert_ids, slot_ids)`` where
    ``weight_index`` is the tuple that selects each kept assignment's
    entry from the gate-weight tensor of the matching layout.
    """
    expert_indices = np.asarray(expert_indices)
    slot_indices = np.asarray(slot_indices)
    if expert_indices.shape != slot_indices.shape:
        raise ValueError(
            f"expert_indices {expert_indices.shape} and slot_indices "
            f"{slot_indices.shape} must have the same shape"
        )
    if expert_indices.ndim == 2:
        kept = slot_indices >= 0
        token_ids, choice_ids = np.nonzero(kept)
        expert_ids = expert_indices[token_ids, choice_ids]
        slot_ids = slot_indices[token_ids, choice_ids]
        return token_ids, (token_ids, choice_ids), expert_ids, slot_ids
    if expert_indices.ndim == 1:
        if token_indices is None:
            raise ValueError(
                "flat (N,) routing indices require token_indices"
            )
        token_indices = np.asarray(token_indices)
        if token_indices.shape != expert_indices.shape:
            raise ValueError(
                f"token_indices {token_indices.shape} must match "
                f"expert_indices {expert_indices.shape}"
            )
        (pos,) = np.nonzero(slot_indices >= 0)
        return (
            token_indices[pos],
            (pos,),
            expert_indices[pos],
            slot_indices[pos],
        )
    raise ValueError(
        f"routing indices must be (T, k) or flat (N,), got "
        f"{expert_indices.shape}"
    )


@dataclass(frozen=True)
class GroupedRouting:
    """The sort-permutation form of one batch's flat routing.

    Produced by :func:`dispatch_grouped`, consumed by
    :meth:`~repro.moe.experts.Experts.run_grouped` and
    :func:`combine_grouped`.  All arrays are aligned with the sorted
    flat rows: row n belongs to expert ``np.repeat(arange(E),
    segment_counts)[n]``, came from token ``token_ids[n]``, and its
    combine weight lives at ``weight_index`` position n of the gate's
    weight tensor (a ``(token, choice)`` pair for the token-major
    layout, a flat position for the flat layout).
    """

    #: (E,) kept assignments per expert — the segment lengths.
    segment_counts: np.ndarray
    #: (N,) owning token of each sorted row.
    token_ids: np.ndarray
    #: Index tuple selecting each sorted row's gate weight.
    weight_index: Tuple[np.ndarray, ...]

    @property
    def num_assignments(self) -> int:
        return int(self.token_ids.shape[0])


def dispatch_grouped(
    tokens: Tensor,
    expert_indices: np.ndarray,
    slot_indices: np.ndarray,
    num_experts: int,
    token_indices=None,
    plan=None,
) -> Tuple[Tensor, GroupedRouting]:
    """Capacity-free dispatch: (T, M) tokens to flat per-expert segments.

    Sorts the kept assignments by expert (stable, so ties keep the
    gate's assignment order) and gathers each one's token row — a
    single ``O(N * M)`` gather producing an ``(N, M)`` tensor whose
    rows are contiguous per expert, plus the :class:`GroupedRouting`
    bookkeeping needed to combine.  Unlike :func:`dispatch` there is
    no capacity dimension: memory and FLOPs are independent
    of ``C``, dropped assignments simply don't appear, and an expert
    with no tokens contributes an empty segment.

    Routing indices may be token-major ``(T, k)`` or flat ``(N,)``
    with ``token_indices`` (see :func:`_kept_assignments`), so both
    gate families share this path.
    """
    if tokens.ndim != 2:
        raise ValueError(f"tokens must be (T, M), got {tokens.shape}")
    if plan is not None:
        # The fused kernel's single sort already produced the expert-
        # major permutation — no argsort, no bincount.
        routing = GroupedRouting(
            segment_counts=plan.segment_counts,
            token_ids=plan.grouped_token_ids,
            weight_index=plan.grouped_weight_index,
        )
        return gather(tokens, routing.token_ids), routing
    token_ids, weight_index, expert_ids, _ = _kept_assignments(
        expert_indices, slot_indices, token_indices
    )
    order = np.argsort(expert_ids, kind="stable")
    counts = np.bincount(expert_ids, minlength=num_experts).astype(np.int64)
    if counts.shape[0] != num_experts:
        raise ValueError(
            f"expert index {int(expert_ids.max())} out of range for "
            f"{num_experts} experts"
        )
    routing = GroupedRouting(
        segment_counts=counts,
        token_ids=token_ids[order],
        weight_index=tuple(np.asarray(ix)[order] for ix in weight_index),
    )
    return gather(tokens, routing.token_ids), routing


def combine_grouped(
    expert_rows: Tensor,
    routing: GroupedRouting,
    gate_weights: Tensor,
    num_tokens: int,
) -> Tensor:
    """Capacity-free combine: flat (N, M) expert outputs to (T, M) tokens.

    Scales each sorted output row by its differentiable gate weight
    and scatter-adds it straight into the owning token — no gather
    from a capacity buffer, because the rows never left the flat
    form.  Token destinations repeat (up to k ways for top-k, up to E
    under expert-choice), so this is the accumulating scatter; the
    backward is the exact adjoint gather, and the zero gradient at
    dropped assignments falls out because they were never dispatched.
    """
    if expert_rows.ndim != 2:
        raise ValueError(
            f"expert rows must be (N, M), got {expert_rows.shape}"
        )
    if expert_rows.shape[0] != routing.num_assignments:
        raise ValueError(
            f"expert rows {expert_rows.shape} do not match the "
            f"{routing.num_assignments} routed assignments"
        )
    weights = gate_weights[routing.weight_index].reshape(-1, 1)  # (N, 1)
    return scatter_add(expert_rows * weights, routing.token_ids, num_tokens)
