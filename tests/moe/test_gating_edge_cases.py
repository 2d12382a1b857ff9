"""Regression tests for gating edge cases and the vectorized FCFS path.

Covers the corners the index-based rewrite exposed: zero-token
batches, capacity requests larger than the batch, and bit-exactness
of the vectorized slot assignment against the original greedy loop.
"""

import numpy as np
import pytest

from repro.moe import TopKGate
from repro.nn import Tensor

from .legacy_dense import dispatch_mask
from .legacy_routing import assign_capacity_slots


def greedy_slots(top_idx, num_experts, capacity):
    """The original O(T * k) Python reference."""
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


@pytest.mark.parametrize("top_k", [1, 2, 3])
@pytest.mark.parametrize("capacity", [0, 1, 3, 100])
def test_vectorized_slots_match_greedy(rng, top_k, capacity):
    top_idx = rng.integers(0, 5, size=(40, top_k))
    expected = greedy_slots(top_idx, 5, capacity)
    actual = assign_capacity_slots(top_idx, 5, capacity)
    np.testing.assert_array_equal(actual, expected)


def test_slots_empty_batch():
    empty = np.zeros((0, 2), dtype=np.int64)
    assert assign_capacity_slots(empty, 4, 3).shape == (0, 2)


@pytest.fixture
def gate(rng):
    return TopKGate(
        model_dim=8, num_experts=4, rng=rng, top_k=2, capacity_factor=1.0
    )


def test_capacity_zero_tokens(gate):
    assert gate.capacity(0) == 0


def test_capacity_negative_tokens_rejected(gate):
    with pytest.raises(ValueError):
        gate.capacity(-1)


def test_capacity_clamped_to_batch(rng):
    # f * k / E > 1 would give capacity > T; one slot per token is the
    # most any expert can ever receive, so C is clamped to T.
    gate = TopKGate(
        model_dim=8, num_experts=2, rng=rng, top_k=2, capacity_factor=8.0
    )
    assert gate.capacity(3) <= 3
    assert gate.capacity(1) == 1


def test_gate_forward_zero_tokens(gate):
    out = gate(Tensor(np.zeros((0, 8), dtype=np.float32)))
    assert out.num_tokens == 0
    assert out.capacity == 0
    assert out.dropped_tokens == 0
    assert out.drop_fraction == 0.0
    assert dispatch_mask(out).shape == (0, 4, 0)
    assert np.isfinite(out.aux_loss.data)
    out.aux_loss.backward()  # the tape must survive an empty batch


def test_drop_fraction_counts_dropped(rng):
    gate = TopKGate(
        model_dim=8, num_experts=4, rng=rng, top_k=2, capacity_factor=0.25
    )
    out = gate(Tensor(rng.standard_normal((32, 8)).astype(np.float32)))
    assert out.dropped_tokens > 0
    # Normalized per token (matches the seed contract); with k > 1 it
    # counts dropped *assignments*, so it can legitimately exceed 1.0.
    assert out.drop_fraction == out.dropped_tokens / 32

