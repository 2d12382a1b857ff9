"""Fused single-pass routing: one sort from gate choices to permutation.

A :class:`RoutingPlan` is the one routing record of a batch: every
consumer — grouped dispatch and combine, dense mask densification,
the expert-parallel C1 dispatch — reads slices of it instead of
recomputing ``nonzero``/``argsort``/``bincount``.

:func:`route_fused` builds the plan for token-major top-k routing
from **one** stable argsort over the flat ``(k*T,)`` expert ids; every
other quantity is linear arithmetic on that single permutation.  It
replaces a chain that ordered the same assignments four times over
(a ``(k*T, E)`` one-hot cumsum for the slots, an ``np.nonzero`` kept
scan, a stable argsort plus ``bincount`` for the grouped order, and a
per-chunk argsort in C1).  The derivation (all bit-identical to that
chain, which ``tests/moe/test_routing_fused.py`` keeps as its
reference):

* Sort the *token-major* flat ids ``top_idx.reshape(-1)`` (flat
  position ``q = t*k + c``).  A stable sort by expert yields the
  lexicographic ``(e, t, c)`` order — restricted to kept entries this
  is exactly the stable ``argsort(expert_ids_kept)`` permutation,
  because stable sorting a subsequence preserves its relative order.
* FCFS slot ranks are *choice-major* (``(e, c, t)`` priority: all
  first choices in token order, then all second choices — GShard's
  greedy rule), which is a different order — but it never needs a
  second sort.  For a sorted entry with expert ``e`` and choice ``c``
  its rank splits into ``#{same e, smaller c}`` (a cumulative-sum
  difference over per-``(e, c)`` pair counts) plus its occurrence
  index within the ``(e, c)`` group (the sorted order within a group
  is already ascending in ``t``), computed per choice with one
  ``bincount``/``repeat`` pass — ``O(k * (T*k + E))`` total.
* Rank ``>= capacity`` is precisely the assignment the greedy loop
  drops, because a skipped assignment never frees a slot; everything
  else (kept coordinates, the grouped permutation, segment counts,
  the per-``(e, c)`` counts the aux loss needs) falls out of the same
  arrays.

Chunked consumers rely on the *restriction property*: chunk
boundaries never split a token's k assignments, and restricting the
global ``(e, t, c)`` order to a contiguous token range gives exactly
what a per-chunk stable argsort would — so a chunk's routing is a
masked slice of the plan.

:func:`plan_from_indices` is the one other builder: it derives the
same plan from arbitrary ``(T, k)`` index arrays for degraded
routings whose slot holes break the FCFS-prefix invariant
(:meth:`GateOutput.with_experts_dropped`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class RoutingPlan:
    """Every ordering-derived quantity of one batch's routing, computed once.

    Arrays come in three alignments:

    * per-assignment (``slot_indices`` — token-major ``(T, k)``, the
      gate's layout);
    * kept-assignment order (``kept_*`` — the ``np.nonzero`` scan
      order of the kept mask, i.e. ascending ``(t, c)``);
    * grouped (expert-major) order (``grouped_*`` — kept assignments
      sorted stably by expert, the ``segment_matmul`` layout).

    ``grouped_kept_pos`` is the permutation between the last two: it
    maps each grouped row to its position in the kept-order arrays
    (``kept_token_ids[grouped_kept_pos] == grouped_token_ids``).  A
    ``(token, choice)`` id pair indexes the gate's ``(T, k)`` arrays,
    e.g. its combine weight.
    """

    num_tokens: int
    num_experts: int
    capacity: int

    #: (E,) assignments per expert *before* the capacity cut.
    counts: np.ndarray
    #: (E, k) assignments per (expert, choice) — fused top-k only.
    choice_counts: Optional[np.ndarray]
    #: (T, k) slot of every assignment (``-1`` = dropped).
    slot_indices: np.ndarray
    #: Assignments dropped by the capacity cut.
    dropped_assignments: int

    #: Kept-order coordinate arrays.
    kept_token_ids: np.ndarray
    kept_expert_ids: np.ndarray
    kept_slot_ids: np.ndarray
    kept_choice_ids: np.ndarray

    #: (N,) grouped row -> position in the kept-order arrays.
    grouped_kept_pos: np.ndarray
    #: (N,) owning token of each grouped row.
    grouped_token_ids: np.ndarray
    #: (N,) expert of each grouped row (non-decreasing).
    grouped_expert_ids: np.ndarray
    #: (N,) choice column of each grouped row.
    grouped_choice_ids: np.ndarray
    #: (E,) kept assignments per expert — the segment lengths.
    segment_counts: np.ndarray

    @property
    def expert_load(self) -> np.ndarray:
        """(E,) occupied slots per expert (== the segment lengths)."""
        return self.segment_counts

    @property
    def num_kept(self) -> int:
        return int(self.grouped_token_ids.shape[0])


def route_fused(
    top_idx: np.ndarray, num_experts: int, capacity: int
) -> RoutingPlan:
    """One stable sort from ``(T, k)`` gate choices to a full plan.

    Bit-identical to the legacy chain: ``slot_indices`` matches the
    one-hot-cumsum slot assignment (choice-major FCFS with drops at
    capacity), the ``kept_*`` arrays match the
    ``np.nonzero`` scan of the kept mask, and the ``grouped_*`` arrays
    match a stable argsort of the kept expert ids (token-major
    tie-breaking within an expert).  See the module docstring for the
    derivation.
    """
    top_idx = np.asarray(top_idx)
    if top_idx.ndim != 2:
        raise ValueError(
            f"top_idx must be (tokens, k), got shape {top_idx.shape}"
        )
    if num_experts < 1:
        raise ValueError(f"num_experts must be >= 1, got {num_experts}")
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    num_tokens, top_k = top_idx.shape
    n = num_tokens * top_k

    flat_experts = top_idx.reshape(-1)
    counts = np.bincount(flat_experts, minlength=num_experts).astype(np.int64)
    if counts.shape[0] != num_experts:
        raise ValueError(
            f"expert index {int(flat_experts.max())} out of range for "
            f"{num_experts} experts"
        )
    if n == 0 or capacity == 0:
        # Everything drops, but the per-(expert, choice) counts must
        # still be real: the gate's aux loss reads first-choice counts
        # from the plan whatever the capacity.
        if n:
            pair_all = flat_experts * top_k + (
                np.arange(n, dtype=np.int64) % top_k
            )
            choice_counts = (
                np.bincount(pair_all, minlength=num_experts * top_k)
                .reshape(num_experts, top_k)
                .astype(np.int64)
            )
        else:
            choice_counts = np.zeros((num_experts, top_k), dtype=np.int64)
        empty = np.zeros(0, dtype=np.int64)
        return RoutingPlan(
            num_tokens=num_tokens,
            num_experts=num_experts,
            capacity=capacity,
            counts=counts,
            choice_counts=choice_counts,
            slot_indices=np.full((num_tokens, top_k), -1, dtype=np.int64),
            dropped_assignments=n,
            kept_token_ids=empty,
            kept_expert_ids=empty,
            kept_slot_ids=empty,
            kept_choice_ids=empty,
            grouped_kept_pos=empty,
            grouped_token_ids=empty,
            grouped_expert_ids=empty,
            grouped_choice_ids=empty,
            segment_counts=np.zeros(num_experts, dtype=np.int64),
        )

    # THE sort: stable over token-major flat ids -> (e, t, c) order.
    order = np.argsort(flat_experts, kind="stable")
    sorted_experts = flat_experts[order]
    sorted_choice = order % top_k

    # Choice-major FCFS rank of each sorted assignment, no second
    # sort.  term 1: assignments of the same expert with a strictly
    # smaller choice all precede it in the (e, c, t) priority order.
    pair = sorted_experts * top_k + sorted_choice
    pair_counts = np.bincount(pair, minlength=num_experts * top_k)
    choice_counts = pair_counts.reshape(num_experts, top_k).astype(np.int64)
    cum = np.concatenate(([0], np.cumsum(pair_counts)))
    rank = cum[pair] - cum[sorted_experts * top_k]
    # term 2: its occurrence index within the (e, c) group.  The
    # choice-c subsequence of the sorted array keeps the expert
    # grouping and is ascending in token within each group, so the
    # occurrence index is position-minus-run-start.
    for c in range(top_k):
        (idx,) = np.nonzero(sorted_choice == c)
        sub_counts = np.bincount(sorted_experts[idx], minlength=num_experts)
        starts = np.repeat(
            np.concatenate(([0], np.cumsum(sub_counts[:-1]))), sub_counts
        )
        rank[idx] += np.arange(idx.shape[0], dtype=np.int64) - starts

    # Rank >= capacity is exactly the greedy loop's drop: a skipped
    # assignment never frees a slot.
    slot_sorted = np.where(rank < capacity, rank, -1)
    slot_flat = np.empty(n, dtype=np.int64)
    slot_flat[order] = slot_sorted
    slot_indices = slot_flat.reshape(num_tokens, top_k)

    # Kept coordinates in nonzero-scan (ascending flat q) order.
    kept = slot_indices >= 0
    kept_token_ids, kept_choice_ids = np.nonzero(kept)
    kept_expert_ids = top_idx[kept_token_ids, kept_choice_ids]
    kept_slot_ids = slot_indices[kept_token_ids, kept_choice_ids]
    num_kept = kept_token_ids.shape[0]

    # Grouped permutation: the kept subsequence of THE sort.
    kept_sorted = slot_sorted >= 0
    perm = order[kept_sorted]  # flat q positions, expert-major
    grouped_token_ids = perm // top_k
    grouped_choice_ids = perm % top_k
    # Position of each grouped row in the kept-order arrays, via the
    # inverse kept-rank map — O(n), no second sort.
    kept_rank = np.empty(n, dtype=np.int64)
    kept_rank[kept_token_ids * top_k + kept_choice_ids] = np.arange(
        num_kept, dtype=np.int64
    )
    grouped_kept_pos = kept_rank[perm]

    return RoutingPlan(
        num_tokens=num_tokens,
        num_experts=num_experts,
        capacity=capacity,
        counts=counts,
        choice_counts=choice_counts,
        slot_indices=slot_indices,
        dropped_assignments=n - num_kept,
        kept_token_ids=kept_token_ids,
        kept_expert_ids=kept_expert_ids,
        kept_slot_ids=kept_slot_ids,
        kept_choice_ids=kept_choice_ids,
        grouped_kept_pos=grouped_kept_pos,
        grouped_token_ids=grouped_token_ids,
        grouped_expert_ids=top_idx[grouped_token_ids, grouped_choice_ids],
        grouped_choice_ids=grouped_choice_ids,
        segment_counts=np.minimum(counts, capacity),
    )


def plan_from_indices(
    expert_indices: np.ndarray,
    slot_indices: np.ndarray,
    num_experts: int,
    capacity: int,
) -> RoutingPlan:
    """Build a plan from arbitrary ``(T, k)`` index arrays.

    The builder for top-k routings whose slots are no longer an FCFS
    prefix (dead-expert degradation punches holes), which
    :func:`route_fused` cannot take.  An ``np.nonzero`` scan of the
    kept mask, then one stable argsort over the kept expert ids.
    """
    expert_indices = np.asarray(expert_indices)
    slot_indices = np.asarray(slot_indices)
    if expert_indices.ndim != 2:
        raise ValueError(
            f"routing indices must be (T, k), got {expert_indices.shape}"
        )
    if expert_indices.shape != slot_indices.shape:
        raise ValueError(
            f"expert_indices {expert_indices.shape} and slot_indices "
            f"{slot_indices.shape} must have the same shape"
        )
    counts_all = np.bincount(
        expert_indices.reshape(-1), minlength=num_experts
    ).astype(np.int64)
    if counts_all.shape[0] != num_experts:
        raise ValueError(
            f"expert index {int(expert_indices.max())} out of range for "
            f"{num_experts} experts"
        )
    kept_token_ids, kept_choice_ids = np.nonzero(slot_indices >= 0)
    kept_expert_ids = expert_indices[kept_token_ids, kept_choice_ids]
    kept_slot_ids = slot_indices[kept_token_ids, kept_choice_ids]
    order = np.argsort(kept_expert_ids, kind="stable")
    segment_counts = np.bincount(
        kept_expert_ids, minlength=num_experts
    ).astype(np.int64)
    return RoutingPlan(
        num_tokens=expert_indices.shape[0],
        num_experts=num_experts,
        capacity=capacity,
        counts=counts_all,
        choice_counts=None,
        slot_indices=slot_indices,
        dropped_assignments=int(slot_indices.size - kept_token_ids.shape[0]),
        kept_token_ids=kept_token_ids,
        kept_expert_ids=kept_expert_ids,
        kept_slot_ids=kept_slot_ids,
        kept_choice_ids=kept_choice_ids,
        grouped_kept_pos=order,
        grouped_token_ids=kept_token_ids[order],
        grouped_expert_ids=kept_expert_ids[order],
        grouped_choice_ids=kept_choice_ids[order],
        segment_counts=segment_counts,
    )
