"""The expert-parallel group's forward records no autograd tape.

``ExpertParallelGroup.forward`` returns numpy arrays, so it runs its
gate and its seven task kinds under ``inference_mode()``.  These tests
pin what that must and must not change: every expert call inside it
is tape-free under both pipelines, the mode is left again on return
and on a task fault, the outputs are fresh arrays the caller owns,
and they are bit-identical to the group's taped forward — healthy,
degraded, and with a train-mode noisy gate.
"""

import numpy as np
import pytest

from repro.compression import get_compressor
from repro.moe import MoELayer
from repro.moe.parallel import ExpertParallelGroup
from repro.nn import is_inference

PIPELINES = [("sync", 1), ("overlap", 2)]


def make_layer(seed=0, compressor=None, **kwargs):
    return MoELayer(
        model_dim=32,
        hidden_dim=48,
        num_experts=8,
        rng=np.random.default_rng(seed),
        top_k=2,
        capacity_factor=4.0,
        compressor=compressor,
        **kwargs,
    )


def make_shards(rng, tokens=24, workers=4):
    return [
        rng.standard_normal((tokens, 32)).astype(np.float32)
        for _ in range(workers)
    ]


def taped_forward(group, shards):
    """The group's forward as it ran before it went tape-free."""
    shards = group._validate_shards(shards)
    return group._forward_chunked(shards, group._gate_shards(shards))


def assert_bits_equal(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype == np.float32
        assert np.array_equal(a.view(np.int32), b.view(np.int32))


def group_parity(rng, dead_workers=(), **kwargs):
    group = ExpertParallelGroup(make_layer().eval(), num_workers=4, **kwargs)
    group.set_dead_workers(dead_workers)
    shards = make_shards(rng)
    ref = taped_forward(group, shards)
    assert_bits_equal(group.forward(shards), ref)
    return group, shards


def test_group_parity_sync_and_overlap(rng):
    group_parity(rng)
    group_parity(rng, pipeline="overlap", num_chunks=2)


def test_group_parity_with_dead_workers(rng):
    group_parity(rng, dead_workers={1})
    group_parity(rng, dead_workers={0, 3}, pipeline="overlap", num_chunks=2)


@pytest.mark.parametrize("pipeline,num_chunks", PIPELINES)
def test_every_expert_call_runs_tape_free(rng, monkeypatch, pipeline, num_chunks):
    layer = make_layer().eval()
    group = ExpertParallelGroup(
        layer, 4, pipeline=pipeline, num_chunks=num_chunks
    )
    seen = []
    gate_forward = layer.gate.forward
    run_grouped = layer.experts.run_grouped

    def gate_spy(tokens):
        out = gate_forward(tokens)
        seen.append(("gate", is_inference(), out.aux_loss._node))
        return out

    def experts_spy(rows, counts):
        out = run_grouped(rows, counts)
        seen.append(("experts", is_inference(), out._node))
        return out

    monkeypatch.setattr(layer.gate, "forward", gate_spy)
    monkeypatch.setattr(layer.experts, "run_grouped", experts_spy)
    group.forward(make_shards(rng))
    assert not is_inference()
    assert [k for k, _, _ in seen].count("gate") == 4
    assert [k for k, _, _ in seen].count("experts") >= 4 * num_chunks
    assert all(mode and node is None for _, mode, node in seen)


@pytest.mark.parametrize("pipeline,num_chunks", PIPELINES)
def test_inference_mode_is_left_after_a_task_fault(
    rng, monkeypatch, pipeline, num_chunks
):
    layer = make_layer().eval()
    group = ExpertParallelGroup(
        layer, 4, pipeline=pipeline, num_chunks=num_chunks
    )

    def fail(rows, counts):
        raise RuntimeError("injected expert fault")

    monkeypatch.setattr(layer.experts, "run_grouped", fail)
    with pytest.raises(RuntimeError, match="injected"):
        group.forward(make_shards(rng))
    assert not is_inference()


@pytest.mark.parametrize("pipeline,num_chunks", PIPELINES)
def test_outputs_outlive_the_next_forward(rng, pipeline, num_chunks):
    """A second forward on other shards leaves the first's
    outputs untouched, and no two outputs share memory."""
    layer = make_layer(compressor=get_compressor("zfp")).eval()
    group = ExpertParallelGroup(
        layer, 4, pipeline=pipeline, num_chunks=num_chunks
    )
    first = group.forward(make_shards(rng))
    kept = [y.copy() for y in first]
    second = group.forward(make_shards(rng))
    assert_bits_equal(first, kept)
    assert not any(np.array_equal(a, b) for a, b in zip(first, second))
    outputs = first + second
    for i, a in enumerate(outputs):
        assert a.flags.owndata
        for b in outputs[i + 1:]:
            assert not np.shares_memory(a, b)
