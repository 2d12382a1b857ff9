"""Sparse index routing must match the dense einsum reference.

The production layer's grouped path is a reformulation of the GShard
einsums (``legacy_dense``) — same outputs, same gradients —
so every case here checks both the forward values and the parameter /
input gradients against the dense path, including the edge cases the
index arithmetic could plausibly get wrong: dropped tokens (capacity
pressure) and experts that receive zero tokens.
"""

import numpy as np
import pytest

from repro.models import Seq2SeqTransformer, TransformerLM
from repro.moe import MoELayer, TopKGate, combine_grouped, dispatch_grouped
from repro.nn import Tensor

from . import legacy_dense
from .legacy_dense import combine, combine_weights, dispatch, dispatch_mask


def make_layers(rng_seed, top_k, capacity_factor, num_experts=4, dim=16):
    """Two MoELayers with identical parameters, one per path."""
    layers = {}
    for mode in ("dense", "sparse"):
        rng = np.random.default_rng(rng_seed)
        layers[mode] = MoELayer(
            model_dim=dim,
            hidden_dim=2 * dim,
            num_experts=num_experts,
            rng=rng,
            top_k=top_k,
            capacity_factor=capacity_factor,
        )
    for p_dense, p_sparse in zip(
        layers["dense"].parameters(), layers["sparse"].parameters()
    ):
        np.testing.assert_array_equal(p_dense.data, p_sparse.data)
    return layers


def run_step(layer, x_data, forward=MoELayer.__call__):
    x = Tensor(x_data.copy(), requires_grad=True)
    y = forward(layer, x)
    loss = (y**2).mean() + 0.01 * layer.last_aux_loss
    loss.backward()
    grads = [np.array(p.grad) for p in layer.parameters()]
    return np.array(y.data), np.array(x.grad), grads


@pytest.mark.parametrize("top_k", [1, 2])
@pytest.mark.parametrize("capacity_factor", [0.25, 1.0, 4.0])
def test_layer_outputs_and_grads_match(rng, top_k, capacity_factor):
    """Both backends agree at no-drop, heavy-drop and over-capacity."""
    layers = make_layers(3, top_k, capacity_factor)
    x_data = rng.standard_normal((24, 16)).astype(np.float32)

    y_d, xg_d, grads_d = run_step(
        layers["dense"], x_data, legacy_dense.forward
    )
    y_s, xg_s, grads_s = run_step(layers["sparse"], x_data)

    np.testing.assert_allclose(y_s, y_d, rtol=1e-5, atol=1e-6)
    np.testing.assert_allclose(xg_s, xg_d, rtol=1e-5, atol=1e-6)
    for g_s, g_d in zip(grads_s, grads_d):
        np.testing.assert_allclose(g_s, g_d, rtol=1e-5, atol=1e-6)


def test_dropped_tokens_present(rng):
    """The heavy-drop case really drops tokens (the test bites)."""
    layers = make_layers(3, 2, 0.25)
    x = Tensor(rng.standard_normal((24, 16)).astype(np.float32))
    layers["sparse"](x)
    assert layers["sparse"].last_gate_output.dropped_tokens > 0


def test_zero_token_expert(rng):
    """An expert nobody picks yields zero rows, identically in both."""
    gate_rng = np.random.default_rng(0)
    gate = TopKGate(8, 4, gate_rng, top_k=1, capacity_factor=4.0)
    # Steer every token to expert 0 by rigging the gate projection.
    gate.wg.weight.data[:] = 0.0
    gate.wg.weight.data[:, 0] = 1.0
    x = Tensor(
        np.abs(rng.standard_normal((6, 8))).astype(np.float32),
        requires_grad=True,
    )
    out = gate(x.detach())
    assert np.all(out.expert_indices == 0)
    assert np.asarray(out.expert_load)[1:].sum() == 0

    routed_dense = dispatch(x, dispatch_mask(out))
    rows = dispatch_grouped(x, out.plan)
    # Expert 0's segment is its dense buffer's occupied prefix; idle
    # experts get empty segments, and their dense buffers stay zero.
    np.testing.assert_array_equal(out.plan.segment_counts, [6, 0, 0, 0])
    np.testing.assert_allclose(rows.data, routed_dense.data[0], rtol=1e-6)
    assert np.all(routed_dense.data[1:] == 0.0)

    merged_dense = combine(routed_dense, combine_weights(out))
    merged_sparse = combine_grouped(rows, out.plan, out.gate_weights)
    np.testing.assert_allclose(
        merged_sparse.data, merged_dense.data, rtol=1e-5, atol=1e-6
    )


def dense_layers_ran(model):
    """For each MoE layer of ``model``: did its last forward run the
    dense reference?  (It leaves an (E, C, M) capacity buffer in
    ``last_dispatched``; production leaves its flat (N, M) rows.)"""
    return [
        m.last_dispatched.ndim == 3
        for m in model.modules()
        if isinstance(m, MoELayer)
    ]


def test_pinned_runs_every_layer_on_the_reference_and_restores():
    """Inside ``pinned()`` every MoE layer of an LM and an MT model runs
    the dense reference; after it, even when the body raised, the
    layers run production again."""
    rng = np.random.default_rng(0)
    lm = TransformerLM(
        vocab_size=12, model_dim=16, hidden_dim=16, num_layers=2,
        num_heads=2, max_seq_len=8, moe=True, num_experts=4, seed=0,
    )
    mt = Seq2SeqTransformer(
        src_vocab=12, tgt_vocab=12, model_dim=16, hidden_dim=16,
        num_layers=2, num_heads=2, max_seq_len=8, moe=True,
        num_experts=4, seed=0,
    )
    tokens = rng.integers(1, 12, size=(3, 2, 8))

    def run_both():
        lm(tokens[0])
        mt(tokens[1], tokens[2])
        return dense_layers_ran(lm), dense_layers_ran(mt)

    with legacy_dense.pinned():
        lm_ran, mt_ran = run_both()
    assert len(lm_ran) == 2 and len(mt_ran) == 4
    assert all(lm_ran) and all(mt_ran)
    assert not any(sum(run_both(), []))

    with pytest.raises(KeyError):
        with legacy_dense.pinned():
            raise KeyError("boom")
    assert not any(sum(run_both(), []))
