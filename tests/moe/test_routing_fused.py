"""Property suite for the fused single-sort routing kernel.

:func:`~repro.moe.routing.route_fused` must be *bit-identical* to two
independently-derived references on every field:

* a hand-rolled greedy slot-assignment loop (choice-major FCFS — all
  first choices in token order, then all second choices — each
  assignment taking its expert's next free slot or dropping at
  capacity), for the slot array;
* the legacy chain (``assign_capacity_slots`` + the ``np.nonzero``
  kept scan + stable ``argsort`` by expert + ``bincount``) for the
  grouped permutation and the segment counts.

The grid crosses token counts (empty batch, single token, 513 to
straddle chunking shapes, 4096 = the bench headline), top-k, expert
counts, and capacity regimes (0 = all dropped, 1 = maximal drop
pressure, tight, loose = no drops), plus an adversarial layout a real
gate never emits: duplicate experts within one token's choices.  A
degraded plan (dead experts masked out of the fused one) is pinned to
the same chain over its punched slot array.
"""

import numpy as np
import pytest

from repro.moe import RoutingPlan, route_fused
from repro.moe.gating import TopKGate
from repro.nn import Tensor

from .legacy_routing import assign_capacity_slots


def greedy_reference_slots(top_idx, num_experts, capacity):
    """The original O(T * k) greedy loop: GShard's FCFS rule."""
    num_tokens, top_k = top_idx.shape
    positions = np.full((num_tokens, top_k), -1, dtype=np.int64)
    fill = np.zeros(num_experts, dtype=np.int64)
    for choice in range(top_k):
        for token in range(num_tokens):
            expert = top_idx[token, choice]
            if fill[expert] < capacity:
                positions[token, choice] = fill[expert]
                fill[expert] += 1
    return positions


def legacy_chain(top_idx, slots, num_experts):
    """nonzero scan + stable argsort + bincount — the retired chain."""
    kept = slots >= 0
    tok, choice = np.nonzero(kept)
    e_ids = top_idx[tok, choice]
    order = np.argsort(e_ids, kind="stable")
    return dict(
        grouped_token_ids=tok[order],
        grouped_expert_ids=e_ids[order],
        grouped_choice_ids=choice[order],
        segment_counts=np.bincount(e_ids, minlength=num_experts).astype(
            np.int64
        ),
    )


def assert_plan_matches_references(plan, top_idx, num_experts, capacity):
    T, k = top_idx.shape
    ref_slots = greedy_reference_slots(top_idx, num_experts, capacity)
    np.testing.assert_array_equal(
        plan.slot_indices,
        assign_capacity_slots(top_idx, num_experts, capacity),
    )
    assert_grouped_match_chain(plan, top_idx, ref_slots, num_experts)
    assert (plan.num_tokens, plan.num_experts, plan.capacity) == (
        T, num_experts, capacity
    )
    np.testing.assert_array_equal(
        plan.choice_counts.sum(axis=1),
        np.bincount(top_idx.reshape(-1), minlength=num_experts),
    )
    for c in range(k):
        np.testing.assert_array_equal(
            plan.choice_counts[:, c],
            np.bincount(top_idx[:, c], minlength=num_experts)
            if T
            else np.zeros(num_experts, dtype=np.int64),
        )


def assert_grouped_match_chain(plan, top_idx, slots, num_experts):
    """The plan's grouped arrays and drop bookkeeping are the legacy
    chain's over the slot array ``slots``."""
    np.testing.assert_array_equal(plan.slot_indices, slots)
    chain = legacy_chain(top_idx, slots, num_experts)
    for field, want in chain.items():
        np.testing.assert_array_equal(
            getattr(plan, field), want, err_msg=field
        )
    np.testing.assert_array_equal(plan.expert_load, plan.segment_counts)
    assert plan.dropped_assignments == int((slots < 0).sum())
    assert plan.num_kept == chain["grouped_token_ids"].shape[0]


# Every (experts, top_k) pair a top-k gate accepts: top_k <= experts.
@pytest.mark.parametrize("num_tokens", [0, 1, 513, 4096])
@pytest.mark.parametrize(
    ("num_experts", "top_k"),
    [(e, k) for e in (1, 8, 32) for k in (1, 2, 4) if k <= e],
)
def test_fused_matches_greedy_reference(rng, num_tokens, top_k, num_experts):
    # Distinct experts per token, like a real top-k gate emits.
    top_idx = np.argsort(
        rng.random((num_tokens, num_experts)), axis=1
    )[:, :top_k]
    tight = max((num_tokens * top_k) // (2 * num_experts), 1)
    for capacity in (0, 1, tight, num_tokens + 1):
        plan = route_fused(top_idx, num_experts, capacity)
        assert_plan_matches_references(plan, top_idx, num_experts, capacity)


def test_duplicate_experts_within_a_token(rng):
    """Rows may repeat an expert (no real gate does; the kernel must
    still match the greedy rule, which fills both assignments)."""
    for _ in range(5):
        top_idx = rng.integers(0, 4, size=(37, 3))
        for capacity in (0, 1, 5, 200):
            plan = route_fused(top_idx, 4, capacity)
            assert_plan_matches_references(plan, top_idx, 4, capacity)


def test_all_dropped(rng):
    top_idx = np.argsort(rng.random((19, 8)), axis=1)[:, :2]
    plan = route_fused(top_idx, 8, 0)
    assert plan.num_kept == 0
    assert plan.dropped_assignments == 38
    np.testing.assert_array_equal(plan.slot_indices, -1)
    np.testing.assert_array_equal(plan.segment_counts, np.zeros(8, np.int64))
    # But the pre-capacity counts survive (the aux loss reads them).
    assert int(plan.choice_counts.sum()) == 38
    np.testing.assert_array_equal(
        plan.choice_counts[:, 0], np.bincount(top_idx[:, 0], minlength=8)
    )


def test_gate_attaches_the_plan(rng):
    """TopKGate caches the fused plan; its fields are the gate's."""
    gate = TopKGate(8, 4, np.random.default_rng(0), top_k=2,
                    capacity_factor=0.75)
    out = gate(Tensor(rng.standard_normal((33, 8)).astype(np.float32)))
    plan = out.plan
    assert isinstance(plan, RoutingPlan)
    np.testing.assert_array_equal(plan.slot_indices, out.slot_indices)
    np.testing.assert_array_equal(plan.expert_load, out.expert_load)
    assert plan.dropped_assignments == out.dropped_tokens
    assert_plan_matches_references(
        plan, out.expert_indices, 4, out.capacity
    )


def test_dropped_expert_plan_rebuilds_generically(rng):
    """with_experts_dropped punches non-FCFS slot holes; its plan must
    be the legacy chain's over the punched slot array, field by field,
    for any dead set, with or without capacity drops."""
    for top_k, num_experts, capacity_factor, dead_sets in (
        (2, 4, 2.0, [{1}, {0, 3}, {0, 1, 2, 3}]),
        (2, 4, 0.75, [{1}, {2, 3}]),
        (3, 8, 1.0, [{0}, {1, 4, 6}, {7}]),
    ):
        gate = TopKGate(8, num_experts, np.random.default_rng(0),
                        top_k=top_k, capacity_factor=capacity_factor)
        out = gate(
            Tensor(rng.standard_normal((25, 8)).astype(np.float32))
        )
        top_idx = np.asarray(out.expert_indices)
        for dead in dead_sets:
            degraded = out.with_experts_dropped(dead)
            plan = degraded.plan
            assert plan is not out.plan  # rebuilt, not inherited
            dead_mask = np.isin(np.arange(num_experts), list(dead))
            punched = np.where(dead_mask[top_idx], -1, out.slot_indices)
            assert_grouped_match_chain(plan, top_idx, punched, num_experts)
            assert not dead_mask[plan.grouped_expert_ids].any()
            np.testing.assert_array_equal(
                plan.segment_counts, degraded.expert_load
            )
            assert degraded.dropped_tokens == plan.dropped_assignments
            # The pre-drop per-(expert, choice) counts and the shape
            # scalars carry over.
            np.testing.assert_array_equal(
                plan.choice_counts, out.plan.choice_counts
            )
            assert (plan.num_tokens, plan.num_experts, plan.capacity) == (
                out.num_tokens, num_experts, out.capacity
            )


def test_route_fused_validation():
    with pytest.raises(ValueError, match="tokens, k"):
        route_fused(np.zeros(3, dtype=np.int64), 4, 2)
    with pytest.raises(ValueError, match="num_experts"):
        route_fused(np.zeros((2, 2), dtype=np.int64), 0, 2)
    with pytest.raises(ValueError, match="capacity"):
        route_fused(np.zeros((2, 2), dtype=np.int64), 4, -1)
    with pytest.raises(ValueError, match="out of range"):
        route_fused(np.full((2, 2), 7, dtype=np.int64), 4, 2)
