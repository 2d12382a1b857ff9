"""Sparse index routing must match the dense einsum reference.

The sparse backend (``dispatch_mode="sparse"``) is a reformulation of
the GShard einsums — same outputs, same gradients —
so every case here checks both the forward values and the parameter /
input gradients against the dense path, including the edge cases the
index arithmetic could plausibly get wrong: dropped tokens (capacity
pressure) and experts that receive zero tokens.
"""

import numpy as np
import pytest

from repro.moe import (
    MoELayer,
    TopKGate,
    combine,
    combine_grouped,
    dispatch,
    dispatch_grouped,
)
from repro.nn import Tensor


def make_layers(rng_seed, top_k, capacity_factor, num_experts=4, dim=16):
    """Two MoELayers with identical parameters, one per dispatch mode."""
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
            dispatch_mode=mode,
        )
    for p_dense, p_sparse in zip(
        layers["dense"].parameters(), layers["sparse"].parameters()
    ):
        np.testing.assert_array_equal(p_dense.data, p_sparse.data)
    return layers


def run_step(layer, x_data):
    x = Tensor(x_data.copy(), requires_grad=True)
    y = layer(x)
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

    y_d, xg_d, grads_d = run_step(layers["dense"], x_data)
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

    routed_dense = dispatch(x, out.dispatch_mask)
    rows = dispatch_grouped(x, out.plan)
    # Expert 0's segment is its dense buffer's occupied prefix; idle
    # experts get empty segments, and their dense buffers stay zero.
    np.testing.assert_array_equal(out.plan.segment_counts, [6, 0, 0, 0])
    np.testing.assert_allclose(rows.data, routed_dense.data[0], rtol=1e-6)
    assert np.all(routed_dense.data[1:] == 0.0)

    merged_dense = combine(routed_dense, out.combine_weights)
    merged_sparse = combine_grouped(rows, out.plan, out.gate_weights)
    np.testing.assert_allclose(
        merged_sparse.data, merged_dense.data, rtol=1e-5, atol=1e-6
    )


def test_dense_mode_still_selectable(rng):
    layer = MoELayer(
        8, 16, 4, np.random.default_rng(1), dispatch_mode="dense"
    )
    assert layer.dispatch_mode == "dense"
    y = layer(Tensor(rng.standard_normal((10, 8)).astype(np.float32)))
    assert y.shape == (10, 8)


def test_table6_pins_each_model_dense(monkeypatch):
    """The convergence study trains every MoE layer on the dense
    reference, while its model builders keep the sparse default."""
    from types import SimpleNamespace

    from repro.training import convergence

    seen = []

    def record(model, *args, **kwargs):
        seen.append(
            [m.dispatch_mode for m in model.modules() if isinstance(m, MoELayer)]
        )
        return SimpleNamespace(metric=0.0)

    monkeypatch.setattr(convergence, "train_lm", record)
    monkeypatch.setattr(convergence, "train_translation", record)
    convergence.run_lm_convergence(variants=["Base", "MoE"])
    convergence.run_translation_convergence(variants=["Base", "MoE w/ZFP"])
    assert [len(modes) for modes in seen] == [0, 2, 0, 4]
    assert all(mode == "dense" for modes in seen for mode in modes)

    corpus = convergence.default_lm_corpus()
    model = convergence._lm_model("MoE", corpus, seed=0)
    modes = [m.dispatch_mode for m in model.modules() if isinstance(m, MoELayer)]
    assert modes and all(mode == "sparse" for mode in modes)


def test_unknown_dispatch_mode_rejected():
    with pytest.raises(ValueError, match="dispatch_mode"):
        MoELayer(8, 16, 4, np.random.default_rng(1), dispatch_mode="fast")

