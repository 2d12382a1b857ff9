"""Tests of top-k gating with expert capacity."""

import numpy as np
import pytest

from repro.models.configs import MoEModelConfig
from repro.moe import MoELayer, TopKGate, load_balancing_loss
from repro.nn import Tensor
from repro.nn import functional as F

from .legacy_dense import combine_weights, dispatch_mask


@pytest.fixture
def gate(rng):
    return TopKGate(
        model_dim=16, num_experts=4, rng=rng, top_k=2, capacity_factor=1.25
    )


def tokens(rng, n=24, dim=16):
    return Tensor(rng.standard_normal((n, dim)).astype(np.float32))


def test_capacity_formula_matches_eq1(gate):
    # C = ceil(f * k * T / E)
    assert gate.capacity(24) == int(np.ceil(1.25 * 2 * 24 / 4))


def test_gate_output_shapes(gate, rng):
    out = gate(tokens(rng))
    cap = gate.capacity(24)
    assert dispatch_mask(out).shape == (24, 4, cap)
    assert combine_weights(out).shape == (24, 4, cap)
    assert out.expert_load.shape == (4,)


def test_each_token_routed_to_at_most_k(gate, rng):
    out = gate(tokens(rng))
    per_token = dispatch_mask(out).sum(axis=(1, 2))
    assert np.all(per_token <= 2)


def test_capacity_never_exceeded(gate, rng):
    out = gate(tokens(rng))
    per_expert = dispatch_mask(out).sum(axis=(0, 2))
    assert np.all(per_expert <= out.capacity)
    # Slots are uniquely assigned: one token per (expert, slot).
    per_slot = dispatch_mask(out).sum(axis=0)
    assert np.all(per_slot <= 1)


def test_dropped_token_accounting(rng):
    gate = TopKGate(8, 2, rng, top_k=1, capacity_factor=1.0)
    out = gate(tokens(rng, n=16, dim=8))
    routed = int(dispatch_mask(out).sum())
    assert routed + out.dropped_tokens == 16  # k=1: one slot per token


def test_combine_weights_nonnegative_and_bounded(gate, rng):
    out = gate(tokens(rng))
    w = combine_weights(out).data
    assert np.all(w >= 0)
    sums = w.sum(axis=(1, 2))
    assert np.all(sums <= 1.0 + 1e-5)


def test_combine_weights_normalized_over_kept(gate, rng):
    out = gate(tokens(rng))
    w = combine_weights(out).data
    kept = dispatch_mask(out).sum(axis=(1, 2)) > 0
    sums = w.sum(axis=(1, 2))
    np.testing.assert_allclose(sums[kept], 1.0, atol=1e-5)
    np.testing.assert_allclose(sums[~kept], 0.0, atol=1e-7)


def test_weights_only_on_dispatched_slots(gate, rng):
    out = gate(tokens(rng))
    w = combine_weights(out).data
    assert np.all(w[dispatch_mask(out) == 0] == 0)


def test_gate_is_differentiable(gate, rng):
    x = Tensor(
        rng.standard_normal((12, 16)).astype(np.float32), requires_grad=True
    )
    out = gate(x)
    (combine_weights(out).sum() + out.aux_loss).backward()
    assert gate.wg.weight.grad is not None
    assert x.grad is not None


def test_aux_loss_minimized_at_uniform(rng):
    probs = Tensor(np.full((32, 4), 0.25, dtype=np.float32))
    uniform_first = np.tile(np.arange(4), 8)
    loss = load_balancing_loss(
        probs, np.bincount(uniform_first, minlength=4), 4
    )
    assert float(loss.data) == pytest.approx(1.0)
    # Collapsed routing scores E x worse.
    collapsed = load_balancing_loss(
        Tensor(np.eye(4, dtype=np.float32)[np.zeros(32, int)]),
        np.bincount(np.zeros(32, int), minlength=4),
        4,
    )
    assert float(collapsed.data) == pytest.approx(4.0)


def test_gate_validation(rng):
    with pytest.raises(ValueError):
        TopKGate(8, 4, rng, top_k=0)
    with pytest.raises(ValueError):
        TopKGate(8, 4, rng, top_k=5)
    with pytest.raises(ValueError):
        TopKGate(8, 4, rng, capacity_factor=0.0)
    gate = TopKGate(8, 4, rng)
    with pytest.raises(ValueError):
        gate(Tensor(np.zeros((2, 3, 8))))


ROUTING_BUILDERS = {
    "gate": lambda k, f: TopKGate(
        8, 4, np.random.default_rng(0), top_k=k, capacity_factor=f
    ),
    "layer": lambda k, f: MoELayer(
        8, 16, 4, np.random.default_rng(0), top_k=k, capacity_factor=f
    ),
    "config": lambda k, f: MoEModelConfig(
        name="c", num_layers=1, batch_per_gpu=1, seq_len=4, hidden_dim=4,
        model_dim=4, top_k=k, num_experts=4, capacity_factor=f,
    ),
}


@pytest.mark.parametrize(
    "top_k,capacity_factor,error",
    [
        (1.5, 1.0, TypeError),
        (2.0, 1.0, TypeError),  # integral, but a float all the same
        (2, float("nan"), ValueError),
        (2, float("inf"), ValueError),
        (2, -float("inf"), ValueError),
        (2, 0.0, ValueError),
        (0, 1.0, ValueError),
    ],
)
@pytest.mark.parametrize("build", sorted(ROUTING_BUILDERS))
def test_routing_arguments_are_checked_at_construction(
    build, top_k, capacity_factor, error
):
    """A fractional top-k or a non-finite capacity factor raises when
    the gate, layer or model config is built, not in a later forward
    or cost formula.  Numpy integers are integers."""
    with pytest.raises(error):
        ROUTING_BUILDERS[build](top_k, capacity_factor)
    ROUTING_BUILDERS[build](np.int64(2), np.float32(1.25))


def test_first_choice_priority_over_second(rng):
    """With tight capacity, first choices win slots over second ones."""
    gate = TopKGate(8, 2, rng, top_k=2, capacity_factor=0.5)
    out = gate(tokens(rng, n=16, dim=8))
    probs = F.softmax(gate.wg(tokens(rng, n=16, dim=8))).data
    # Capacity is ceil(0.5*2*16/2)=8 per expert; the 16 first choices
    # alone exceed 16 slots, so no second choice may displace a first
    # choice: total kept slots equal total capacity filled greedily.
    assert dispatch_mask(out).sum() <= 16


def test_drop_fraction(rng):
    gate = TopKGate(8, 2, rng, top_k=1, capacity_factor=0.5)
    out = gate(tokens(rng, n=16, dim=8))
    assert out.drop_fraction == pytest.approx(out.dropped_tokens / 16)
    generous = TopKGate(8, 2, rng, top_k=1, capacity_factor=4.0)
    assert generous(tokens(rng, n=16, dim=8)).drop_fraction == 0.0
