"""Pipeline-vs-sync parity for the chunked expert-parallel executor.

The contract that gates the overlap work (paper Section 4 made real):

* ``pipeline="overlap"`` is *bit-identical* to ``pipeline="sync"`` at
  any chunk count, with dead workers, with a lossy codec, and with the
  wire-time model — the two modes run the same task callables, only
  thread interleaving differs.
* Without a lossy codec, the chunk count itself is invisible: chunks
  are token ranges, per-row GEMM results don't depend on batching, and
  the per-token combine accumulation order is preserved, so any
  ``num_chunks`` matches ``num_chunks=1`` bit-for-bit.  (A lossy codec
  quantizes per payload, so there chunking shifts values within codec
  error — the documented exception.)
* ``num_chunks=1`` + ``pipeline="sync"`` reproduces the pre-pipeline
  capacity-padded execution bit-for-bit (hand-rolled reference below).

The group is the only chunked executor (``MoELayer`` itself always
runs unchunked); its sync pipeline is the reference for overlap.
"""

import numpy as np
import pytest

from repro.compression import get_compressor
from repro.moe import MoELayer
from repro.moe.parallel import ExpertParallelGroup
from repro.nn import Tensor


def make_layer(compressor=None, num_experts=8, dim=16, **kw):
    return MoELayer(
        model_dim=dim,
        hidden_dim=2 * dim,
        num_experts=num_experts,
        rng=np.random.default_rng(7),
        top_k=2,
        capacity_factor=2.0,
        compressor=compressor,
        **kw,
    )


def make_shards(rng, num_workers=4, tokens=48, dim=16):
    data = rng.standard_normal((tokens, dim)).astype(np.float32)
    return list(np.split(data, num_workers))


def group_forward(layer, shards, **group_kw):
    group = ExpertParallelGroup(layer, len(shards), **group_kw)
    return group.forward_concatenated(shards)


# -- overlap == sync, bit for bit --------------------------------------------


@pytest.mark.parametrize("num_chunks", [1, 3, 4])
def test_overlap_matches_sync_bitwise(rng, num_chunks):
    layer = make_layer().eval()
    shards = make_shards(rng)
    out_sync = group_forward(
        layer, shards, pipeline="sync", num_chunks=num_chunks
    )
    out_overlap = group_forward(
        layer, shards, pipeline="overlap", num_chunks=num_chunks
    )
    np.testing.assert_array_equal(out_overlap, out_sync)


def test_overlap_matches_sync_with_codec(rng):
    """Lossy transport: same-chunk-count modes still agree bitwise."""
    layer = make_layer(compressor=get_compressor("zfp")).eval()
    shards = make_shards(rng)
    for num_chunks in (1, 4):
        out_sync = group_forward(
            layer, shards, pipeline="sync", num_chunks=num_chunks
        )
        out_overlap = group_forward(
            layer, shards, pipeline="overlap", num_chunks=num_chunks
        )
        np.testing.assert_array_equal(out_overlap, out_sync)


def test_overlap_matches_sync_with_dead_workers(rng):
    layer = make_layer(compressor=get_compressor("zfp")).eval()
    shards = make_shards(rng)
    outs = {}
    for pipeline in ("sync", "overlap"):
        group = ExpertParallelGroup(layer, 4, pipeline=pipeline, num_chunks=3)
        group.set_dead_workers([1])
        outs[pipeline] = group.forward_concatenated(shards)
        # The dead worker neither receives nor sends anything.
        assert group.last_dispatch_traffic.matrix[:, 1].sum() == 0.0
        assert group.last_combine_traffic.matrix[1, :].sum() == 0.0
    np.testing.assert_array_equal(outs["overlap"], outs["sync"])


def test_overlap_matches_sync_with_wire_model(rng):
    """The wire-time model changes timing only, never values."""
    layer = make_layer().eval()
    shards = make_shards(rng)
    base = group_forward(layer, shards, num_chunks=2)
    for pipeline in ("sync", "overlap"):
        out = group_forward(
            layer,
            shards,
            pipeline=pipeline,
            num_chunks=2,
            link_bandwidth=50e9,
        )
        np.testing.assert_array_equal(out, base)


@pytest.mark.parametrize("scheduler", ["sequential", "chunk-pipeline", "optsche"])
def test_overlap_identical_across_schedulers(rng, scheduler):
    """Any valid task order computes the same bits."""
    layer = make_layer().eval()
    shards = make_shards(rng)
    base = group_forward(layer, shards, pipeline="sync", num_chunks=4)
    out = group_forward(
        layer, shards, pipeline="overlap", num_chunks=4, scheduler=scheduler
    )
    np.testing.assert_array_equal(out, base)


# -- chunk count invisibility (no codec) -------------------------------------


@pytest.mark.parametrize("num_chunks", [2, 3, 5, 12, 100])
def test_chunk_count_is_bit_invisible_without_codec(rng, num_chunks):
    """Including num_chunks > tokens-per-shard (trailing chunks empty)."""
    layer = make_layer().eval()
    shards = make_shards(rng)  # 12 tokens per shard < 100 chunks
    base = group_forward(layer, shards, num_chunks=1)
    for pipeline in ("sync", "overlap"):
        out = group_forward(
            layer, shards, pipeline=pipeline, num_chunks=num_chunks
        )
        np.testing.assert_array_equal(out, base)


def test_empty_shard(rng):
    """A worker with a zero-token shard participates without effect."""
    layer = make_layer().eval()
    data = rng.standard_normal((30, 16)).astype(np.float32)
    shards = [data[:0], data[:10], data[10:12], data[12:]]
    base = group_forward(layer, shards, num_chunks=1)
    for pipeline in ("sync", "overlap"):
        out = group_forward(
            layer, shards, pipeline=pipeline, num_chunks=3
        )
        np.testing.assert_array_equal(out, base)
        assert out.shape == (30, 16)


# -- num_chunks=1 == the pre-pipeline execution ------------------------------


def legacy_reference_forward(layer, shards):
    """The pre-pipeline ExpertParallelGroup sparse path, hand-rolled.

    Capacity-padded (C, M) blocks per (src, expert), one grouped run
    per destination over the blocks sorted by expert with sources in
    rank order, combine by kept-coordinate scatter-add — exactly the
    algorithm this PR's flat-payload task graph replaced (no codec).
    """
    gate = layer.gate
    num_experts = gate.num_experts
    P = len(shards)
    epw = num_experts // P
    model_dim = layer.model_dim
    outs = [gate(Tensor(np.asarray(s, dtype=np.float32))) for s in shards]

    def kept_coords(out):
        # The np.nonzero scan of the kept mask: ascending (t, c).
        t_ids, c_ids = np.nonzero(out.slot_indices >= 0)
        return (
            t_ids, c_ids, out.expert_indices[t_ids, c_ids],
            out.slot_indices[t_ids, c_ids],
        )

    blocks = {}
    for w, out in enumerate(outs):
        t_ids, _, e_ids, s_ids = kept_coords(out)
        buf = np.zeros(
            (num_experts, out.capacity, model_dim), dtype=np.float32
        )
        buf[e_ids, s_ids] = np.asarray(shards[w], dtype=np.float32)[t_ids]
        blocks[w] = buf

    results = {}
    for dst in range(P):
        entries = []
        for src in range(P):
            for e in range(dst * epw, (dst + 1) * epw):
                entries.append((e, src, blocks[src][e]))
        entries.sort(key=lambda item: item[0])
        counts = np.zeros(num_experts, dtype=np.int64)
        for e, _, block in entries:
            counts[e] += block.shape[0]
        rows = np.concatenate([block for _, _, block in entries], axis=0)
        out_rows = layer.experts.run_grouped(Tensor(rows), counts).data
        offset = 0
        for e, src, block in entries:
            results[(src, e)] = out_rows[offset : offset + block.shape[0]]
            offset += block.shape[0]

    merged = []
    for w, out in enumerate(outs):
        t_ids, c_ids, e_ids, s_ids = kept_coords(out)
        weights = out.gate_weights.data[t_ids, c_ids]
        expert_out = np.zeros(
            (num_experts, out.capacity, model_dim), dtype=np.float32
        )
        for e in range(num_experts):
            expert_out[e] = results[(w, e)]
        acc = np.zeros((shards[w].shape[0], model_dim), dtype=np.float32)
        np.add.at(acc, t_ids, weights[:, None] * expert_out[e_ids, s_ids])
        merged.append(acc)
    return np.concatenate(merged, axis=0)


@pytest.mark.parametrize("num_workers", [1, 2, 4])
def test_single_chunk_sync_matches_legacy_reference(rng, num_workers):
    layer = make_layer().eval()
    shards = make_shards(rng, num_workers=num_workers)
    legacy = legacy_reference_forward(layer, shards)
    out = group_forward(layer, shards, pipeline="sync", num_chunks=1)
    np.testing.assert_array_equal(out, legacy)


def test_validation():
    layer = make_layer()
    with pytest.raises(ValueError, match="pipeline"):
        ExpertParallelGroup(layer, 4, pipeline="bogus")
    with pytest.raises(ValueError, match="num_chunks"):
        ExpertParallelGroup(layer, 4, num_chunks=0)
    with pytest.raises(ValueError, match="link_bandwidth"):
        ExpertParallelGroup(layer, 4, link_bandwidth=-1.0)


def test_timeline_recorded(rng):
    layer = make_layer().eval()
    shards = make_shards(rng)
    group = ExpertParallelGroup(layer, 4, pipeline="overlap", num_chunks=3)
    group.forward(shards)
    assert len(group.last_timeline) == 7 * 3
    for start, end in group.last_timeline.values():
        assert 0.0 <= start <= end


def test_fresh_group_state_is_defined():
    """Every ``last_*`` record reads ``None`` before the first forward."""
    group = ExpertParallelGroup(make_layer(), 4)
    assert group.last_timeline is None
    assert group.last_dispatch_traffic is None
    assert group.last_combine_traffic is None
