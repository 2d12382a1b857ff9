"""Dispatch and combine: the data movement the A2A collectives carry.

In distributed execution the dispatched rows are what the first
all-to-all ships between GPUs and the combined result is what the
second all-to-all brings home (paper Fig. 2); numerically the
single-process computation is identical to the synchronized multi-GPU
computation, which is why the convergence experiments can run without
physical GPUs.

Both sides are *capacity-free* and read the gate's
:class:`~repro.moe.routing.RoutingPlan`, the one routing record the
gate emits: :func:`dispatch_grouped` gathers the token rows
in the plan's expert-major order into contiguous per-expert segments,
the layout :meth:`~repro.moe.experts.Experts.run_grouped` consumes via
:func:`~repro.nn.fused.expert_ffn`.  No ``(E, C, M)`` buffer, no
scatter into capacity slots, no empty-slot padding — memory traffic
is ``O(N * M)`` in the routed assignment count however large the
capacity factor grows, the same move FastMoE made when it replaced
GShard's einsum dispatch with index-based scatter/gather kernels.
:func:`combine_grouped` is its adjoint-structured inverse: weight and
scatter-add the flat expert output rows straight into their owning
tokens.  The grouped pair matches GShard's dense einsums over one-hot
``(T, E, C)`` masks, which the test suite keeps as its reference
(``tests/moe/legacy_dense.py``), in outputs and gradients
(``tests/moe/test_dispatch_parity.py``).
"""

from __future__ import annotations

import numpy as np

from ..nn.fused import weighted_scatter_add
from ..nn.tensor import Tensor, gather
from .routing import RoutingPlan


def dispatch_grouped(tokens: Tensor, plan: RoutingPlan) -> Tensor:
    """Capacity-free dispatch: (T, M) tokens to flat per-expert segments.

    Gathers each kept assignment's token row in the plan's
    expert-major order — a single ``O(N * M)`` gather producing an
    ``(N, M)`` tensor whose rows are contiguous per expert
    (``plan.segment_counts`` are the segment lengths).  There is no
    capacity dimension: memory and FLOPs are independent of ``C``,
    dropped assignments simply don't appear, and an expert with no
    tokens contributes an empty segment.
    """
    if tokens.ndim != 2:
        raise ValueError(f"tokens must be (T, M), got {tokens.shape}")
    return gather(tokens, plan.grouped_token_ids)


def combine_grouped(
    expert_rows: Tensor, plan: RoutingPlan, gate_weights: Tensor
) -> Tensor:
    """Capacity-free combine: flat (N, M) expert outputs to (T, M) tokens.

    Scales each sorted output row by its differentiable gate weight
    and scatter-adds it straight into the owning token — no gather
    from a capacity buffer, because the rows never left the flat
    form.  Token destinations repeat (up to k ways), so this is the
    accumulating scatter.  It is one node,
    :func:`~repro.nn.fused.weighted_scatter_add`: each slice of rows
    is weighted as it is staged into the scatter's occurrence rounds
    (the expert-parallel D2 merge weights its rows the same way), so
    the (N, M) weighted rows never exist, and the output is the bits
    of the product ``expert_rows * weights`` accumulated by
    ``np.add.at``.  The backward is that chain's: the adjoint gather,
    then the product's formulas; the zero gradient at dropped
    assignments falls out because they were never dispatched.
    """
    if expert_rows.ndim != 2:
        raise ValueError(
            f"expert rows must be (N, M), got {expert_rows.shape}"
        )
    if expert_rows.shape[0] != plan.num_kept:
        raise ValueError(
            f"expert rows {expert_rows.shape} do not match the "
            f"{plan.num_kept} routed assignments"
        )
    weights = gate_weights[
        plan.grouped_token_ids, plan.grouped_choice_ids
    ].reshape(-1, 1)
    return weighted_scatter_add(
        expert_rows, weights, plan.grouped_token_ids, plan.num_tokens
    )
