"""The codec on the expert-parallel group's wire.

C1/C2 encode each (src, dst) payload on the computing stream, A1/A2
stage and ship the encoded bytes, and D1/D2 decompress.  This pins:

* what the traffic matrices count — the encoded bytes, within 1% of
  the codec's nominal ``compressed_bytes`` of the fp32 payloads, and
  exactly the fp32 bytes without a codec;
* that the codec runs only on the computing stream;
* that the non-finite check, now raised at C1/C2, aborts both
  pipelines cleanly and leaves the group usable;
* that D1's assembly is the stable-argsort layout it replaced, and
  D2's vectorized merge is bit-identical to ``np.add.at``.
"""

import threading

import numpy as np
import pytest

from repro.compression import get_compressor
from repro.moe import MoELayer
from repro.moe import parallel as parallel_module
from repro.moe.experts import Experts
from repro.moe.parallel import ExpertParallelGroup
from repro.nn import Tensor

from .legacy_expert_step import legacy_scatter_add_rows

LOSSY = ("zfp", "int8")


def make_layer(compressor=None, dim=64):
    return MoELayer(
        model_dim=dim,
        hidden_dim=2 * dim,
        num_experts=8,
        rng=np.random.default_rng(7),
        top_k=2,
        capacity_factor=2.0,
        compressor=compressor,
    ).eval()


def make_shards(rng, dim=64, tokens=96, workers=4):
    data = rng.standard_normal((tokens, dim)).astype(np.float32)
    return list(np.split(data, workers))


def wire_bytes(group):
    return (
        group.last_dispatch_traffic.off_diagonal_bytes,
        group.last_combine_traffic.off_diagonal_bytes,
    )


# -- wire-byte accounting -----------------------------------------------------


@pytest.mark.parametrize("codec_name", LOSSY)
def test_traffic_counts_the_encoded_bytes(rng, codec_name):
    """Cross-worker bytes are the codec's, not the fp32 rows'."""
    codec = get_compressor(codec_name)
    shards = make_shards(rng)
    plain = ExpertParallelGroup(make_layer(), 4, num_chunks=3)
    plain.set_dead_workers([2])
    plain.forward(shards)
    coded = ExpertParallelGroup(make_layer(codec), 4, num_chunks=3)
    coded.set_dead_workers([2])
    coded.forward(shards)
    for fp32, wire in zip(wire_bytes(plain), wire_bytes(coded)):
        assert fp32 > 0
        assert wire == pytest.approx(codec.compressed_bytes(fp32), rel=0.01)


def test_traffic_without_a_codec_is_the_fp32_rows(rng):
    """No codec, or one at 32 bits: every routed row ships as fp32."""
    layer = make_layer()
    shards = make_shards(rng)
    group = ExpertParallelGroup(layer, 4, num_chunks=2)
    group.forward(shards)
    owner = group.placement.owner_array
    crossing = sum(
        int(np.sum(owner[layer.gate(Tensor(s)).plan.grouped_expert_ids] != w))
        for w, s in enumerate(shards)
    )
    assert wire_bytes(group) == (crossing * 64 * 4.0,) * 2
    noop = ExpertParallelGroup(make_layer(get_compressor("none")), 4)
    noop.forward(shards)
    for name in ("last_dispatch_traffic", "last_combine_traffic"):
        np.testing.assert_array_equal(
            getattr(noop, name).matrix, getattr(group, name).matrix
        )


def test_codec_runs_only_on_the_computing_stream(rng, monkeypatch):
    """Encode and decompress are computing tasks (paper Section 4)."""
    codec = get_compressor("zfp")
    threads = []
    for method in ("encode", "decompress"):
        original = getattr(codec, method)

        def spy(arg, original=original):
            threads.append(threading.current_thread().name)
            return original(arg)

        monkeypatch.setattr(codec, method, spy)
    group = ExpertParallelGroup(
        make_layer(codec), 4, pipeline="overlap", num_chunks=4
    )
    group.forward(make_shards(rng))
    assert threads and set(threads) == {"stream-comp"}


# -- the non-finite check aborts cleanly --------------------------------------


def forward_or_hang(group, shards, timeout=60.0):
    """Run a forward on a helper thread; returns (result, exception)."""
    box = {}

    def target():
        try:
            box["out"] = group.forward_concatenated(shards)
        except BaseException as exc:
            box["exc"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "forward deadlocked"
    return box.get("out"), box.get("exc")


@pytest.mark.parametrize("pipeline", ["sync", "overlap"])
def test_nan_shard_aborts_at_c1(rng, pipeline):
    layer = make_layer(get_compressor("zfp"))
    group = ExpertParallelGroup(layer, 4, pipeline=pipeline, num_chunks=4)
    shards = make_shards(rng)
    poisoned = [s.copy() for s in shards]
    poisoned[1][5, 3] = np.nan
    _, exc = forward_or_hang(group, poisoned)
    assert isinstance(exc, ValueError) and "zfp" in str(exc)
    assert "non-finite" in str(exc)
    out, exc = forward_or_hang(group, shards)
    assert exc is None
    reference = ExpertParallelGroup(layer, 4, pipeline="sync", num_chunks=4)
    np.testing.assert_array_equal(
        out.view(np.int32),
        reference.forward_concatenated(shards).view(np.int32),
    )


@pytest.mark.parametrize("pipeline", ["sync", "overlap"])
def test_inf_expert_output_aborts_at_c2(rng, pipeline, monkeypatch):
    layer = make_layer(get_compressor("int8"))
    group = ExpertParallelGroup(layer, 4, pipeline=pipeline, num_chunks=4)
    shards = make_shards(rng)
    run_grouped = Experts.run_grouped

    def overflowing(self, rows, counts):
        out = run_grouped(self, rows, counts)
        out.data[0, 0] = np.inf
        return out

    monkeypatch.setattr(Experts, "run_grouped", overflowing)
    _, exc = forward_or_hang(group, shards)
    assert isinstance(exc, ValueError) and "int8" in str(exc)
    monkeypatch.undo()
    out, exc = forward_or_hang(group, shards)
    assert exc is None
    reference = ExpertParallelGroup(layer, 4, pipeline="sync", num_chunks=4)
    np.testing.assert_array_equal(
        out.view(np.int32),
        reference.forward_concatenated(shards).view(np.int32),
    )


# -- D1's layout is the stable argsort's; D2's merge is np.add.at ------------


@pytest.mark.parametrize("sources,experts", [(1, 1), (3, 4), (4, 8)])
def test_d1_assembly_is_the_stable_argsort_layout(rng, sources, experts):
    counts = rng.integers(0, 4, size=(sources, experts))
    counts[:, 0] += 1  # every source sends something
    payloads = [
        rng.standard_normal((k, 3)).astype(np.float32) for k in counts.sum(1)
    ]
    block, inverses = parallel_module._assemble_expert_major(
        counts, [lambda p=p: p for p in payloads], 3
    )
    local = np.repeat(np.tile(np.arange(experts), sources), counts.ravel())
    perm = np.argsort(local, kind="stable")
    np.testing.assert_array_equal(block, np.concatenate(payloads)[perm])
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(perm.size)
    np.testing.assert_array_equal(np.concatenate(inverses), inverse)



@pytest.mark.parametrize("num_chunks", [1, 3, 4])
@pytest.mark.parametrize("dead", [(), (1,)])
def test_d2_merge_matches_np_add_at(rng, num_chunks, dead, monkeypatch):
    layer = make_layer(dim=16)
    shards = make_shards(rng, dim=16)
    calls = []

    def legacy_scatter_add_parts(out, idx, dtype, parts):
        """D2's staged merge rebuilt on ``np.add.at``: the parts are
        assembled into one zero-filled ``values`` first."""
        calls.append(idx.size)
        values = np.zeros((idx.size,) + out.shape[1:], dtype)
        for positions, rows in parts:
            values[positions] = rows
        legacy_scatter_add_rows(out, idx, values)

    def run():
        group = ExpertParallelGroup(layer, 4, num_chunks=num_chunks)
        group.set_dead_workers(dead)
        return group.forward_concatenated(shards)

    out = run()
    monkeypatch.setattr(
        parallel_module, "_scatter_add_parts", legacy_scatter_add_parts
    )
    legacy = run()
    # The swap took effect: every worker's merge ran through it.
    assert len(calls) >= len(shards) and sum(calls) > 0
    np.testing.assert_array_equal(out.view(np.int32), legacy.view(np.int32))
