"""Fused single-pass routing: one sort from gate choices to permutation.

A :class:`RoutingPlan` is the one routing record of a batch: every
consumer — grouped dispatch and combine, the expert-parallel C1
dispatch and D2 merge — reads slices of it instead of
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
  else (the grouped permutation, segment counts, the per-``(e, c)``
  counts the aux loss needs) falls out of the same arrays.

The plan stores one assignment order, the expert-major ``(e, t, c)``
order every consumer reads.  Both combines add up a token's
contributions in it — ``combine_grouped`` and the expert-parallel
D2 — so the two agree bit for bit at any top-k.  Chunked consumers
rely on its *restriction property*: chunk boundaries never split a
token's k assignments, and restricting the global ``(e, t, c)`` order
to a contiguous token range gives exactly what a per-chunk stable
argsort would — so a chunk's routing is a masked slice of the plan.
The same
property makes :func:`route_fused` the only builder: a degraded
routing (:meth:`~repro.moe.gating.GateOutput.with_experts_dropped`)
masks the dead experts' rows out of the grouped arrays, and what is
left is still in ``(e, t, c)`` order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RoutingPlan:
    """Every ordering-derived quantity of one batch's routing, computed once.

    Arrays come in two alignments:

    * per-assignment (``slot_indices`` — token-major ``(T, k)``, the
      gate's layout);
    * grouped (expert-major) order (``grouped_*`` — kept assignments
      sorted stably by expert, i.e. ascending ``(e, t, c)``, the
      contiguous per-expert segments
      :func:`~repro.nn.fused.expert_ffn` runs).

    A ``(grouped_token_ids, grouped_choice_ids)`` pair indexes the
    gate's ``(T, k)`` arrays: a combine weight, or through
    ``slot_indices`` the assignment's capacity slot.
    """

    num_tokens: int
    num_experts: int
    capacity: int

    #: (E, k) assignments per (expert, choice) *before* the capacity cut.
    choice_counts: np.ndarray
    #: (T, k) slot of every assignment (``-1`` = dropped).
    slot_indices: np.ndarray

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

    @property
    def dropped_assignments(self) -> int:
        """Assignments not routed: capacity drops and dead experts."""
        return int(self.slot_indices.size) - self.num_kept


def route_fused(
    top_idx: np.ndarray, num_experts: int, capacity: int
) -> RoutingPlan:
    """One stable sort from ``(T, k)`` gate choices to a full plan.

    Bit-identical to the legacy chain: ``slot_indices`` matches the
    one-hot-cumsum slot assignment (choice-major FCFS with drops at
    capacity), and the ``grouped_*`` arrays match a stable argsort of
    the ``np.nonzero`` scan's kept expert ids (token-major
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

    # Per-(expert, choice) counts, real whatever the capacity: the
    # gate's aux loss reads the first-choice column even when
    # everything drops.
    flat_experts = top_idx.reshape(-1)
    pair_counts = np.bincount(
        flat_experts * top_k + np.arange(n, dtype=np.int64) % top_k,
        minlength=num_experts * top_k,
    )
    if pair_counts.shape[0] != num_experts * top_k:
        raise ValueError(
            f"expert index {int(flat_experts.max())} out of range for "
            f"{num_experts} experts"
        )
    choice_counts = pair_counts.reshape(num_experts, top_k).astype(np.int64)
    segment_counts = np.minimum(choice_counts.sum(axis=1), capacity)
    if n == 0 or capacity == 0:
        empty = np.zeros(0, dtype=np.int64)
        return RoutingPlan(
            num_tokens=num_tokens,
            num_experts=num_experts,
            capacity=capacity,
            choice_counts=choice_counts,
            slot_indices=np.full((num_tokens, top_k), -1, dtype=np.int64),
            grouped_token_ids=empty,
            grouped_expert_ids=empty,
            grouped_choice_ids=empty,
            segment_counts=segment_counts,
        )

    # THE sort: stable over token-major flat ids -> (e, t, c) order.
    order = np.argsort(flat_experts, kind="stable")
    sorted_experts = flat_experts[order]
    sorted_choice = order % top_k

    # Choice-major FCFS rank of each sorted assignment, no second
    # sort.  term 1: assignments of the same expert with a strictly
    # smaller choice all precede it in the (e, c, t) priority order.
    pair = sorted_experts * top_k + sorted_choice
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

    # Grouped permutation: the kept subsequence of THE sort.
    kept_sorted = slot_sorted >= 0
    perm = order[kept_sorted]  # flat q positions, expert-major
    return RoutingPlan(
        num_tokens=num_tokens,
        num_experts=num_experts,
        capacity=capacity,
        choice_counts=choice_counts,
        slot_indices=slot_flat.reshape(num_tokens, top_k),
        grouped_token_ids=perm // top_k,
        grouped_expert_ids=sorted_experts[kept_sorted],
        grouped_choice_ids=perm % top_k,
        segment_counts=segment_counts,
    )
