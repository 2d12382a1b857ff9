"""Tests of dispatch/combine, experts and the MoE layer."""

import numpy as np
import pytest

from repro.compression import get_compressor
from repro.moe import Experts, MoELayer
from repro.nn import Tensor

from .legacy_dense import (
    combine,
    dispatch,
    dispatch_mask,
    run_expert,
    run_experts,
)


def test_dispatch_places_tokens_in_slots(rng):
    toks = rng.standard_normal((3, 4)).astype(np.float32)
    mask = np.zeros((3, 2, 2), dtype=np.float32)
    mask[0, 0, 0] = 1  # token 0 -> expert 0 slot 0
    mask[1, 1, 0] = 1  # token 1 -> expert 1 slot 0
    mask[2, 0, 1] = 1  # token 2 -> expert 0 slot 1
    out = dispatch(Tensor(toks), mask)
    assert out.shape == (2, 2, 4)
    np.testing.assert_allclose(out.data[0, 0], toks[0])
    np.testing.assert_allclose(out.data[1, 0], toks[1])
    np.testing.assert_allclose(out.data[0, 1], toks[2])
    np.testing.assert_allclose(out.data[1, 1], 0.0)  # empty slot


def test_combine_weights_average(rng):
    expert_out = rng.standard_normal((2, 2, 4)).astype(np.float32)
    weights = np.zeros((1, 2, 2), dtype=np.float32)
    weights[0, 0, 0] = 0.3
    weights[0, 1, 1] = 0.7
    merged = combine(Tensor(expert_out), Tensor(weights))
    expected = 0.3 * expert_out[0, 0] + 0.7 * expert_out[1, 1]
    np.testing.assert_allclose(merged.data[0], expected, rtol=1e-5)


def test_dispatch_combine_roundtrip_identity(rng):
    """dispatch then combine with weight 1 returns routed tokens."""
    toks = rng.standard_normal((4, 8)).astype(np.float32)
    mask = np.zeros((4, 2, 2), dtype=np.float32)
    for t in range(4):
        mask[t, t % 2, t // 2] = 1.0
    routed = dispatch(Tensor(toks), mask)
    back = combine(routed, Tensor(mask))
    np.testing.assert_allclose(back.data, toks, rtol=1e-5)


def test_dispatch_validation(rng):
    with pytest.raises(ValueError):
        dispatch(Tensor(np.zeros((2, 3, 4))), np.zeros((2, 1, 1)))
    with pytest.raises(ValueError):
        dispatch(Tensor(np.zeros((2, 4))), np.zeros((3, 1, 1)))
    with pytest.raises(ValueError):
        combine(Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 1, 1))))


def test_experts_apply_independently(rng):
    experts = Experts(2, 4, 8, rng)
    x = rng.standard_normal((2, 3, 4)).astype(np.float32)
    out = run_experts(experts, Tensor(x))
    assert out.shape == (2, 3, 4)
    # Expert 0 on expert-1's slice != expert 1 on expert-1's slice.
    alt = run_expert(experts, 0, Tensor(x[1]))
    assert not np.allclose(alt.data, out.data[1])
    with pytest.raises(ValueError):
        run_experts(experts, Tensor(np.zeros((3, 3, 4))))
    with pytest.raises(ValueError):  # wrong trailing model dim
        run_experts(experts, Tensor(np.zeros((2, 3, 5))))


def test_moe_layer_shapes_2d_and_3d(rng):
    layer = MoELayer(8, 16, 4, rng, top_k=2, capacity_factor=1.5)
    out3 = layer(Tensor(rng.standard_normal((2, 6, 8)).astype(np.float32)))
    assert out3.shape == (2, 6, 8)
    out2 = layer(Tensor(rng.standard_normal((12, 8)).astype(np.float32)))
    assert out2.shape == (12, 8)
    with pytest.raises(ValueError):
        layer(Tensor(np.zeros(8)))


def test_moe_layer_records_aux_loss_and_stats(rng):
    layer = MoELayer(8, 16, 4, rng)
    layer(Tensor(rng.standard_normal((16, 8)).astype(np.float32)))
    assert layer.last_aux_loss is not None
    assert float(layer.last_aux_loss.data) > 0
    assert layer.last_gate_output.capacity >= 1


def test_moe_layer_end_to_end_gradients(rng):
    layer = MoELayer(8, 16, 4, rng, top_k=2)
    x = Tensor(
        rng.standard_normal((12, 8)).astype(np.float32), requires_grad=True
    )
    out = layer(x)
    ((out**2).mean() + 0.01 * layer.last_aux_loss).backward()
    assert x.grad is not None
    for name, p in layer.named_parameters():
        assert p.grad is not None, f"no grad for {name}"


def test_dropped_tokens_produce_zero_output(rng):
    """GShard semantics: over-capacity tokens emit zeros."""
    layer = MoELayer(8, 16, 2, rng, top_k=1, capacity_factor=0.25)
    x = Tensor(rng.standard_normal((16, 8)).astype(np.float32))
    out = layer(x)
    go = layer.last_gate_output
    dropped_tokens = dispatch_mask(go).sum(axis=(1, 2)) == 0
    assert dropped_tokens.any()  # capacity 2 per expert, 16 tokens
    np.testing.assert_allclose(
        out.data[dropped_tokens], 0.0, atol=1e-6
    )


def test_codec_perturbs_forward_but_preserves_shape(rng):
    seed_rng = lambda: np.random.default_rng(7)
    clean = MoELayer(8, 16, 4, seed_rng())
    lossy = MoELayer(8, 16, 4, seed_rng(), compressor=get_compressor("int8"))
    x = rng.standard_normal((12, 8)).astype(np.float32)
    y_clean = clean(Tensor(x))
    y_lossy = lossy(Tensor(x))
    assert y_lossy.shape == y_clean.shape
    assert not np.allclose(y_lossy.data, y_clean.data)
    # fp16 perturbation is much smaller than int8's.
    fp16 = MoELayer(8, 16, 4, seed_rng(), compressor=get_compressor("fp16"))
    y_fp16 = fp16(Tensor(x))
    err_fp16 = np.abs(y_fp16.data - y_clean.data).max()
    err_int8 = np.abs(y_lossy.data - y_clean.data).max()
    assert err_fp16 < err_int8


def test_codec_applied_to_gradients_too(rng):
    """The backward A2A also carries compressed tensors."""
    seed_rng = lambda: np.random.default_rng(3)
    clean = MoELayer(8, 16, 4, seed_rng())
    lossy = MoELayer(8, 16, 4, seed_rng(), compressor=get_compressor("int8"))
    x = rng.standard_normal((12, 8)).astype(np.float32)
    xc = Tensor(x, requires_grad=True)
    xl = Tensor(x.copy(), requires_grad=True)
    clean(xc).sum().backward()
    lossy(xl).sum().backward()
    assert not np.allclose(xc.grad, xl.grad)


def test_noop_codec_is_exactly_clean(rng):
    seed_rng = lambda: np.random.default_rng(5)
    clean = MoELayer(8, 16, 4, seed_rng())
    noop = MoELayer(8, 16, 4, seed_rng(), compressor=get_compressor("none"))
    x = rng.standard_normal((12, 8)).astype(np.float32)
    np.testing.assert_array_equal(
        clean(Tensor(x)).data, noop(Tensor(x)).data
    )
