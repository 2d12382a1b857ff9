"""Tests of multi-layer execution and cross-layer chunk pipelining."""

import dataclasses

import pytest

from repro.collectives import get_a2a
from repro.compression import get_compressor
from repro.core import ModelExecutor, get_scheduler
from repro.models import ablation_layer, bert_large_moe, ct_moe


def make(spec, a2a="pipe", codec="none", partitions=2):
    return ModelExecutor(
        spec,
        get_a2a(a2a),
        get_compressor(codec),
        get_scheduler("optsche"),
        partitions=partitions,
    )


def test_mode_validation(paper_spec):
    executor = make(paper_spec)
    with pytest.raises(ValueError):
        executor.run(ct_moe(12), mode="warp")
    with pytest.raises(ValueError):
        make(paper_spec, partitions=0)


def test_makespan_scales_with_layers(paper_spec):
    executor = make(paper_spec)
    t4 = executor.run(ct_moe(4), mode="layer-barrier").makespan
    t8 = executor.run(ct_moe(8), mode="layer-barrier").makespan
    assert t8 > t4 * 1.8


def test_chunked_never_slower_than_barrier(paper_spec):
    executor = make(paper_spec, a2a="nccl")
    for layers in (2, 6):
        cfg = ct_moe(layers)
        barrier = executor.run(cfg, mode="layer-barrier").makespan
        chunked = executor.run(cfg, mode="chunked").makespan
        assert chunked <= barrier + 1e-12


def test_cross_layer_gain_when_comm_bound(paper_spec):
    """Comm-bound model: next layer's attention hides the trailing
    A2A tail of the previous layer.  (6-layer BERT variant: the gain
    is per layer boundary, so depth beyond a few layers only adds
    simulation time.)"""
    executor = make(paper_spec, a2a="nccl", codec="none", partitions=4)
    cfg = dataclasses.replace(bert_large_moe(), num_layers=6)
    barrier = executor.run(cfg, mode="layer-barrier").makespan
    chunked = executor.run(cfg, mode="chunked").makespan
    assert barrier / chunked > 1.12


def test_no_gain_when_comm_already_hidden(paper_spec):
    """With ZFP-compressed payloads the comm tail is negligible and
    both modes coincide."""
    executor = make(paper_spec, a2a="pipe", codec="zfp")
    cfg = ct_moe(6)
    barrier = executor.run(cfg, mode="layer-barrier").makespan
    chunked = executor.run(cfg, mode="chunked").makespan
    assert chunked == pytest.approx(barrier, rel=1e-3)


def test_single_layer_consistent_with_layer_executor(paper_spec):
    """A 1-layer layer_only model has no attention, so either mode
    reproduces the per-layer OptSche makespan bit for bit (recorded
    with the former per-layer ``EventExecutor``)."""
    executor = make(paper_spec, a2a="pipe", codec="zfp")
    for mode in ("layer-barrier", "chunked"):
        makespan = executor.run(ablation_layer(), mode=mode).makespan
        assert makespan.hex() == "0x1.7dea3ccf889f5p-2"


def test_fractional_partitions_rejected_at_construction(paper_spec):
    """It used to fail only inside ``run()``, with a range() TypeError."""
    with pytest.raises(TypeError, match="partitions"):
        make(paper_spec, partitions=1.5)
