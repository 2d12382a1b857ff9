"""Tests of the profiler, ScheMoELayer planning, and step simulation."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import fit_alpha_beta, paper_testbed
from repro.cluster.costmodel import attention_forward_flops, ffn_forward_flops
from repro.collectives import get_a2a, measure_a2a
from repro.compression import get_compressor
from repro.core import (
    PARTITION_CANDIDATES,
    LinearPerfModel,
    Profiler,
    RoutingSkew,
    ScheMoELayer,
    SystemPolicy,
    TaskDurations,
    dense_param_count,
    estimate_memory_bytes,
    local_param_count,
    simulate_model_step,
)
from repro.core.system import BACKWARD_EXPERT_FACTOR
from repro.models import bert_large_moe, ct_moe


@pytest.fixture
def profiler(paper_spec):
    return Profiler(
        paper_spec, a2a=get_a2a("pipe"), compressor=get_compressor("zfp")
    )


def test_linear_perf_model_fit_and_predict():
    model = LinearPerfModel(*fit_alpha_beta([0.0, 1.0, 2.0], [1.0, 3.0, 5.0]))
    assert model.alpha == pytest.approx(1.0)
    assert model.beta == pytest.approx(2.0)
    assert model.predict(10.0) == pytest.approx(21.0)
    assert model.predict(-1e6) == 0.0  # clamped
    with pytest.raises(ValueError):
        fit_alpha_beta([1.0], [1.0])


def test_profiler_caches_a2a_measurements(profiler):
    t1 = profiler.measure_a2a_seconds(1e6)
    assert profiler.measure_a2a_seconds(1e6) == t1
    assert len(profiler._a2a_cache) == 1


def test_profile_layer_durations_positive(profiler):
    durations = profiler.profile_layer(ct_moe(12), partitions=2)
    assert durations.compress > 0
    assert durations.a2a > 0
    assert durations.decompress > 0
    assert durations.expert > 0


def test_profile_layer_chunking_shrinks_tasks(profiler):
    d1 = profiler.profile_layer(ct_moe(12), partitions=1)
    d2 = profiler.profile_layer(ct_moe(12), partitions=2)
    assert d2.a2a < d1.a2a
    assert d2.expert < d1.expert
    with pytest.raises(ValueError):
        profiler.profile_layer(ct_moe(12), partitions=0)


def test_profiler_a2a_cache_keys_the_exact_size(paper_spec):
    # Two sizes in one rounding bucket: each gets its own measurement,
    # whichever was asked first.
    profiler = Profiler(paper_spec, get_a2a("nccl"), get_compressor("none"))
    for size in (1000.3, 1000.4):
        want = measure_a2a(get_a2a("nccl"), paper_spec, size).seconds
        assert profiler.measure_a2a_seconds(size) == want
    assert profiler.a2a_measurements == 2


def test_expert_tokens_match_capacity_math():
    cfg = ct_moe(12)
    # E * C ~ f * k * B * L, with C = ceil(1.0 * 1 * 136 * 31 / 32).
    assert cfg.expert_tokens_per_gpu == 32 * 132
    assert cfg.expert_tokens_per_gpu >= 136 * 31


def test_expert_and_attention_pricing(profiler, paper_spec):
    gpu = paper_spec.gpu
    fwd = profiler.expert_seconds(1000, 512, 2048)
    assert fwd == gpu.gemm_time(ffn_forward_flops(1000, 512, 2048), True)
    cfg = ct_moe(12)
    tokens = cfg.tokens_per_gpu
    assert profiler.attention_seconds(cfg) == gpu.gemm_time(
        attention_forward_flops(tokens, cfg.model_dim, cfg.seq_len)
    ) + gpu.memory_time(8.0 * tokens * cfg.model_dim * 4.0)
    layer = replace(cfg, layer_only=True)
    assert profiler.attention_seconds(layer) == 0.0
    # Backward: dgrad + wgrad, 2x the expert forward.
    assert BACKWARD_EXPERT_FACTOR == 2.0
    durations = profiler.profile_layer(cfg, 2)
    backward = durations.backward(BACKWARD_EXPERT_FACTOR)
    assert backward.expert == 2.0 * durations.expert


def test_compressed_wire_size_drives_a2a(paper_spec):
    zfp = Profiler(paper_spec, get_a2a("nccl"), get_compressor("zfp"))
    raw = Profiler(paper_spec, get_a2a("nccl"), get_compressor("none"))
    cfg = ct_moe(12)
    assert zfp.profile_layer(cfg, 1).a2a < raw.profile_layer(cfg, 1).a2a


def test_schemoe_layer_plan(paper_spec, rng):
    layer = ScheMoELayer(
        model_dim=64,
        hidden_dim=128,
        num_experts=32,
        rng=rng,
        compress_name="zfp",
        comm_name="pipe",
        scheduler_name="optsche",
        partitions=2,
    )
    plan = layer.plan(paper_spec, batch_per_gpu=4, seq_len=128)
    assert plan.forward.makespan > 0
    assert plan.backward.makespan > plan.forward.makespan  # 2x expert
    assert plan.total_s == pytest.approx(
        plan.forward.makespan + plan.backward.makespan
    )


def test_schemoe_layer_still_computes(rng):
    from repro.nn import Tensor

    layer = ScheMoELayer(16, 32, 4, rng, partitions=2)
    out = layer(Tensor(rng.standard_normal((2, 6, 16)).astype(np.float32)))
    assert out.shape == (2, 6, 16)


def test_schemoe_layer_validates_names(rng):
    with pytest.raises(KeyError):
        ScheMoELayer(16, 32, 4, rng, comm_name="wormhole")
    with pytest.raises(KeyError):
        ScheMoELayer(16, 32, 4, rng, scheduler_name="magic")
    with pytest.raises(ValueError):
        ScheMoELayer(16, 32, 4, rng, partitions=0)


@pytest.mark.parametrize("flag", [True, False])
def test_schemoe_layer_rejects_bool_partitions(rng, flag):
    """``True`` is an int subclass, not a partition degree."""
    with pytest.raises(ValueError, match="partitions"):
        ScheMoELayer(16, 32, 4, rng, partitions=flag)


def test_schemoe_layer_accepts_numpy_integer_partitions(paper_spec):
    """A numpy integer degree plans exactly like the same Python int."""

    def plan(partitions):
        layer = ScheMoELayer(
            64, 128, 32, np.random.default_rng(0), partitions=partitions
        )
        return layer.plan(paper_spec, batch_per_gpu=4, seq_len=128)

    assert plan(np.int64(2)).total_s == plan(2).total_s


def test_policy_validation():
    # A bool is an int subclass, not a degree (as in layer_policy).
    for partitions in (0, 2, (), (0,), (2, 0), (1.5,), (True,), (2, False)):
        with pytest.raises(ValueError, match="partitions"):
            SystemPolicy(name="x", partitions=partitions)
    with pytest.raises(ValueError):
        SystemPolicy(name="x", comm_inefficiency=0.5)


def test_simulate_model_step_breakdown(paper_spec):
    policy = SystemPolicy(
        name="test", compressor="zfp", a2a="pipe",
        scheduler="optsche", partitions=(2,),
    )
    result = simulate_model_step(ct_moe(12), paper_spec, policy)
    assert not result.oom
    assert result.total_s > 0
    assert result.moe_total_s > 0
    assert result.a2a_total_s > 0
    assert 0 < result.a2a_ratio < 1
    parts = (
        result.moe_total_s
        + result.attention_s
        + result.gate_s
        + result.head_s
        + result.allreduce_s
        + result.optimizer_s
    )
    assert result.total_s == pytest.approx(parts)


def test_step_time_scales_with_depth(paper_spec):
    policy = SystemPolicy(name="seq", scheduler="sequential")
    t12 = simulate_model_step(ct_moe(12), paper_spec, policy).total_s
    t24 = simulate_model_step(ct_moe(24), paper_spec, policy).total_s
    assert t24 > t12 * 1.5


def test_comm_inefficiency_slows_step(paper_spec):
    base = SystemPolicy(name="a")
    slow = SystemPolicy(name="b", comm_inefficiency=1.5)
    cfg = ct_moe(12)
    assert (
        simulate_model_step(cfg, paper_spec, slow).total_s
        > simulate_model_step(cfg, paper_spec, base).total_s
    )


def test_memory_accounting_components(paper_spec):
    cfg = bert_large_moe()
    base = SystemPolicy(name="base")
    shadow = SystemPolicy(name="shadow", shadow_expert_layers=6)
    m_base = estimate_memory_bytes(cfg, paper_spec, base)
    m_shadow = estimate_memory_bytes(cfg, paper_spec, shadow)
    expected_extra = 6 * cfg.num_experts * cfg.expert_params * 4.0
    assert m_shadow - m_base == pytest.approx(expected_extra)
    assert local_param_count(cfg, paper_spec) > dense_param_count(cfg)


def test_oom_reported_not_raised(paper_spec):
    cfg = bert_large_moe()
    policy = SystemPolicy(name="fat", shadow_expert_layers=50)
    result = simulate_model_step(cfg, paper_spec, policy)
    assert result.oom
    assert result.total_s == float("inf")
    assert result.a2a_ratio == 0.0


def test_schemoe_layer_auto_partitions(paper_spec, rng):
    """partitions='auto' never does worse than any fixed candidate."""
    def build(partitions):
        return ScheMoELayer(
            model_dim=512, hidden_dim=2048, num_experts=32,
            rng=np.random.default_rng(0), partitions=partitions,
        )

    auto_plan = build("auto").plan(paper_spec, batch_per_gpu=8, seq_len=512)
    assert auto_plan.partitions in PARTITION_CANDIDATES
    for r in PARTITION_CANDIDATES:
        fixed = build(r).plan(paper_spec, batch_per_gpu=8, seq_len=512)
        assert auto_plan.total_s <= fixed.total_s + 1e-12


def test_schemoe_layer_partition_validation(rng):
    with pytest.raises(ValueError):
        ScheMoELayer(16, 32, 4, rng, partitions="many")
    with pytest.raises(ValueError):
        ScheMoELayer(16, 32, 4, rng, partitions=-1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: SystemPolicy(name="x", comm_inefficiency=float("nan")),
        lambda: SystemPolicy(name="x", shadow_expert_layers=-1),
        lambda: SystemPolicy(name="x", shadow_expert_layers=float("nan")),
        lambda: RoutingSkew(float("nan")),
        lambda: TaskDurations(
            compress=float("nan"), a2a=0.0, decompress=0.0, expert=0.0
        ),
    ],
    ids=[
        "comm_inefficiency-nan", "shadow-negative", "shadow-nan",
        "skew-nan", "compress-nan",
    ],
)
def test_timing_inputs_reject_nan_and_negatives(build):
    """NaN fails every comparison, so a ``< bound`` check let it
    through; each of these was accepted and priced."""
    with pytest.raises(ValueError):
        build()


def test_profile_layer_rejects_fractional_partitions(profiler):
    with pytest.raises(TypeError, match="partitions"):
        profiler.profile_layer(ct_moe(12), partitions=1.5)
