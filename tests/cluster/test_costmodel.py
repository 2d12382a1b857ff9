"""Unit tests of link and GPU cost models."""

import itertools

import numpy as np
import pytest

from repro.cluster.costmodel import (
    GpuModel,
    LinkModel,
    attention_forward_flops,
    expert_capacity,
    ffn_forward_flops,
)
from repro.models import MoEModelConfig
from repro.moe.gating import TopKGate


def test_link_alpha_beta():
    link = LinkModel(name="l", latency_s=1e-5, bandwidth_bps=1e9)
    assert link.transfer_time(0) == pytest.approx(1e-5)
    assert link.transfer_time(1e9) == pytest.approx(1.00001)
    with pytest.raises(ValueError):
        link.transfer_time(-1)


def _gpu(**overrides):
    base = dict(
        name="g",
        peak_flops=10e12,
        memory_bandwidth_bps=500e9,
        memory_bytes=8e9,
        peak_efficiency=0.5,
        half_saturation_flops=1e9,
        kernel_launch_s=1e-6,
    )
    base.update(overrides)
    return GpuModel(**base)


def test_gemm_efficiency_saturates():
    gpu = _gpu()
    tiny = gpu.gemm_efficiency(1e6)
    big = gpu.gemm_efficiency(1e12)
    assert tiny < 0.1 * gpu.peak_efficiency
    assert big > 0.99 * gpu.peak_efficiency


def test_gemm_time_monotone_in_flops():
    gpu = _gpu()
    times = [gpu.gemm_time(f) for f in (1e6, 1e8, 1e10, 1e12)]
    assert times == sorted(times)


def test_tensor_core_faster_when_available():
    gpu = _gpu(tensor_flops=40e12, tensor_efficiency=0.5)
    flops = 1e12
    assert gpu.gemm_time(flops, tensor_core=True) < gpu.gemm_time(flops)
    # Without tensor cores, the flag is a no-op.
    plain = _gpu(tensor_flops=0.0)
    assert plain.gemm_time(flops, tensor_core=True) == pytest.approx(
        plain.gemm_time(flops)
    )


def test_gemm_time_rejects_negative():
    with pytest.raises(ValueError):
        _gpu().gemm_time(-1.0)


def test_memory_time_linear():
    gpu = _gpu()
    t1 = gpu.memory_time(500e9)
    assert t1 == pytest.approx(1.0 + 1e-6)
    with pytest.raises(ValueError):
        gpu.memory_time(-5)


def test_a2a_input_bytes_matches_eq2():
    # S = f*k*B*L*M*b/8 — paper Eq. (2), at fp32 (b = 32).
    cfg = MoEModelConfig(
        name="eq2", num_layers=1, batch_per_gpu=8, seq_len=2048,
        hidden_dim=4, model_dim=8192, top_k=1, num_experts=32,
        capacity_factor=1.2, layer_only=True,
    )
    assert cfg.a2a_bytes == pytest.approx(1.2 * 1 * 8 * 2048 * 8192 * 4)
    # Where f*k*T/E is whole, the payload is exactly the E*C capacity
    # slots of Eq. (1), M values each.
    cfg = MoEModelConfig(
        name="eq2", num_layers=1, batch_per_gpu=2, seq_len=512,
        hidden_dim=4, model_dim=64, top_k=2, num_experts=32,
        layer_only=True,
    )
    assert cfg.a2a_bytes == pytest.approx(cfg.expert_tokens_per_gpu * 64 * 4)


def test_expert_capacity_matches_eq1():
    # C = ceil(f*k*T/E) — paper Eq. (1), T = B*L.
    assert expert_capacity(8 * 2048, 32, 1.2, 1) == 615  # ceil(614.4)
    assert expert_capacity(2 * 512, 32, 1.0, 2) == 64
    with pytest.raises(ValueError):
        expert_capacity(2 * 512, 0, 1.0, 2)
    with pytest.raises(ValueError):
        expert_capacity(-1, 8, 1.0, 2)
    # Clamp edges: no tokens need no slots, an expert never gets more
    # slots than there are tokens, and any load gets at least one.
    assert expert_capacity(0, 8, 1.0, 2) == 0
    assert expert_capacity(4, 1, 1.5, 2) == 4  # f*k > E: ceil(12) -> T
    assert expert_capacity(3, 64, 0.01, 1) == 1
    # The gate and the timing substrate's config size capacity with
    # this one rule, the T clamp included (f*k > E at E=1, k=2).
    rng = np.random.default_rng(0)
    grid = itertools.product((1, 4, 24, 130), (1, 2, 8), (1, 2), (1.0, 1.5))
    for tokens, num_experts, top_k, f in grid:
        want = expert_capacity(tokens, num_experts, f, top_k)
        assert 1 <= want <= tokens
        if top_k <= num_experts:
            gate = TopKGate(4, num_experts, rng, top_k, f)
            assert gate.capacity(tokens) == want
        cfg = MoEModelConfig(
            name="eq1", num_layers=1, batch_per_gpu=1, seq_len=tokens,
            hidden_dim=4, model_dim=4, top_k=top_k, num_experts=num_experts,
            capacity_factor=f, layer_only=True,
        )
        assert cfg.capacity == want
        assert cfg.expert_tokens_per_gpu == num_experts * want


def test_ffn_flops_shapes():
    fwd = ffn_forward_flops(100, 512, 2048)
    assert fwd == pytest.approx(2 * 100 * 512 * 2048 * 2)
    assert attention_forward_flops(100, 512, 64) > 0
