"""Property-based tests of gating invariants (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.moe import TopKGate
from repro.nn import Tensor

from .legacy_dense import combine_weights, dispatch_mask


@settings(max_examples=30, deadline=None)
@given(
    num_tokens=st.integers(min_value=1, max_value=48),
    num_experts=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
def test_topk_gate_invariants(num_tokens, num_experts, data):
    top_k = data.draw(st.integers(min_value=1, max_value=num_experts))
    capacity_factor = data.draw(
        st.floats(min_value=0.25, max_value=4.0, allow_nan=False)
    )
    rng = np.random.default_rng(0)
    gate = TopKGate(
        8, num_experts, rng, top_k=top_k, capacity_factor=capacity_factor
    )
    tokens = Tensor(
        rng.standard_normal((num_tokens, 8)).astype(np.float32)
    )
    out = gate(tokens)

    # Shapes are (T, E, C) with C = ceil(f*k*T/E), >= 1.
    cap = out.capacity
    assert cap >= 1
    assert dispatch_mask(out).shape == (num_tokens, num_experts, cap)

    # Per-expert intake never exceeds capacity; slots never shared.
    assert np.all(dispatch_mask(out).sum(axis=(0, 2)) <= cap)
    assert np.all(dispatch_mask(out).sum(axis=0) <= 1)

    # Per-token assignments never exceed k, and routed + dropped = k*T
    # assignment opportunities.
    per_token = dispatch_mask(out).sum(axis=(1, 2))
    assert np.all(per_token <= top_k)
    assert int(dispatch_mask(out).sum()) + out.dropped_tokens == (
        top_k * num_tokens
    )

    # Combine weights live on dispatched slots only and are a
    # sub-distribution per token.
    w = combine_weights(out).data
    assert np.all(w >= -1e-7)
    assert np.all(w[dispatch_mask(out) == 0] == 0)
    assert np.all(w.sum(axis=(1, 2)) <= 1.0 + 1e-5)


@settings(max_examples=20, deadline=None)
@given(num_tokens=st.integers(min_value=1, max_value=32))
def test_generous_capacity_drops_nothing(num_tokens):
    """capacity_factor >= E/k guarantees zero drops."""
    rng = np.random.default_rng(2)
    gate = TopKGate(8, 4, rng, top_k=2, capacity_factor=2.0)
    out = gate(Tensor(rng.standard_normal((num_tokens, 8)).astype(np.float32)))
    assert out.dropped_tokens == 0
