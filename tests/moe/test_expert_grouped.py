"""Parity suite for the production MoE path against the reference.

The production layer (grouped dispatch, ``Experts.run_grouped``,
grouped combine) must match the dense reference (``legacy_dense``:
GShard einsums around the per-expert loop) in outputs and gradients
to 1e-5 relative / 1e-6 absolute: the grouped combine accumulates
token contributions in expert-sorted rather than einsum order, and
``expert_ffn`` re-associates the stacked weight-grad reductions.

Covers the routing shapes that stress the segment form: zero routed
tokens, every token on one expert, capacity drops, E=1, and the
literal multi-worker ``ExpertParallelGroup`` execution (which runs its
received blocks through the same ``run_grouped`` machinery).
"""

import numpy as np
import pytest

from repro.moe import MoELayer, combine_grouped, dispatch_grouped
from repro.moe.parallel import ExpertParallelGroup
from repro.nn import Tensor

from . import legacy_dense
from .legacy_dense import combine, combine_weights, dispatch, dispatch_mask


def run_layer(x0, path, seed=3, **kwargs):
    """Build a seeded layer and run one training step on ``path``
    (``"sparse"``: production, ``"dense"``: the reference)."""
    kwargs.setdefault("top_k", 2)
    kwargs.setdefault("capacity_factor", 1.25)
    bias_expert = kwargs.pop("bias_expert", None)
    layer = MoELayer(
        x0.shape[1], 16, kwargs.pop("num_experts", 4),
        np.random.default_rng(seed), **kwargs,
    )
    if bias_expert is not None:
        layer.gate.wg.weight.data[:, bias_expert] += 10.0
    x = Tensor(x0.copy(), requires_grad=True)
    y = legacy_dense.forward(layer, x) if path == "dense" else layer(x)
    ((y**2).mean() + 0.01 * layer.last_aux_loss).backward()
    return layer, x, y


def assert_matches_reference(x0, **kwargs):
    """Sparse layer == dense layer: outputs, input and parameter grads."""
    layer, x, y = run_layer(x0, "sparse", **kwargs)
    layer_ref, x_ref, y_ref = run_layer(x0, "dense", **kwargs)
    tol = dict(rtol=1e-5, atol=1e-6)
    np.testing.assert_allclose(y.data, y_ref.data, **tol)
    np.testing.assert_allclose(x.grad, x_ref.grad, err_msg="input grad", **tol)
    for (name, p), (_, p_ref) in zip(
        layer.named_parameters(), layer_ref.named_parameters()
    ):
        np.testing.assert_allclose(p.grad, p_ref.grad, err_msg=name, **tol)


def test_topk_sparse_matches_dense(rng):
    x0 = rng.standard_normal((24, 8)).astype(np.float32)
    assert_matches_reference(x0)


def test_zero_routed_tokens(rng):
    """T=0: empty segments everywhere."""
    layer = MoELayer(8, 16, 4, np.random.default_rng(3), top_k=2)
    x = Tensor(np.zeros((0, 8), np.float32), requires_grad=True)
    y = layer(x)
    assert y.shape == (0, 8)
    ((y**2).sum() + 0.01 * layer.last_aux_loss).backward()
    assert x.grad is not None and x.grad.shape == (0, 8)


def test_all_tokens_to_one_expert(rng):
    """top_k=1 with a biased gate: one fat segment, three empty ones.

    Capacity clamps the fat expert, so this doubles as the drop case
    with maximally skewed segments.
    """
    x0 = rng.standard_normal((12, 8)).astype(np.float32)
    assert_matches_reference(
        x0, top_k=1, capacity_factor=1.0, bias_expert=2
    )
    # The gate really did concentrate: expert 2 fills to capacity.
    layer, _, _ = run_layer(x0, "sparse", top_k=1, capacity_factor=1.0,
                            bias_expert=2)
    out = layer.last_gate_output
    assert out.expert_load[2] == out.capacity
    assert out.dropped_tokens > 0


def test_dropped_tokens_under_capacity_pressure(rng):
    x0 = rng.standard_normal((32, 8)).astype(np.float32)
    assert_matches_reference(x0, capacity_factor=0.5)
    layer, _, _ = run_layer(x0, "sparse", capacity_factor=0.5)
    assert layer.last_gate_output.dropped_tokens > 0


def test_single_expert(rng):
    x0 = rng.standard_normal((10, 8)).astype(np.float32)
    assert_matches_reference(x0, num_experts=1, top_k=1)


def test_grouped_dispatch_combine_match_dense(rng):
    """The sort-permutation form reproduces the dense einsum pair."""
    from repro.moe import TopKGate

    gate = TopKGate(8, 4, np.random.default_rng(0), top_k=2,
                    capacity_factor=1.0)
    x = rng.standard_normal((20, 8)).astype(np.float32)
    out = gate(Tensor(x))

    rows = dispatch_grouped(Tensor(x), out.plan)
    assert int(out.plan.segment_counts.sum()) == rows.shape[0]
    np.testing.assert_array_equal(out.plan.segment_counts, out.expert_load)

    # Identity experts: combining the dispatched rows reproduces the
    # dense combine of the dense capacity buffer.
    merged_grouped = combine_grouped(rows, out.plan, out.gate_weights.detach())
    merged_dense = combine(
        dispatch(Tensor(x), dispatch_mask(out)),
        combine_weights(out).detach(),
    )
    np.testing.assert_allclose(
        merged_grouped.data, merged_dense.data, atol=1e-6
    )


def test_expert_parallel_group_grouped(rng):
    """The multi-worker execution batches blocks via run_grouped.

    Its reference is the dense layer applied to each worker's shard:
    every worker gates only its own shard, so this is exact, drops
    included.
    """
    def make():
        return MoELayer(
            8, 16, 4, np.random.default_rng(5), top_k=2,
            capacity_factor=2.0,
        ).eval()

    x = rng.standard_normal((16, 8)).astype(np.float32)
    shards = list(np.split(x, 4))
    group = ExpertParallelGroup(make(), num_workers=4)
    dense = make()
    ref = np.concatenate(
        [legacy_dense.forward(dense, Tensor(s)).data for s in shards], axis=0
    )
    np.testing.assert_allclose(
        group.forward_concatenated(shards), ref, rtol=1e-5, atol=1e-6
    )


def test_parallel_group_with_empty_shard(rng):
    layer = MoELayer(
        8, 16, 4, np.random.default_rng(5), top_k=2, capacity_factor=4.0,
    ).eval()
    group = ExpertParallelGroup(layer, num_workers=2)
    x = rng.standard_normal((8, 8)).astype(np.float32)
    out = group.forward_concatenated([x, np.zeros((0, 8), np.float32)])
    single = layer(Tensor(x)).data
    np.testing.assert_allclose(out, single, rtol=1e-5, atol=1e-6)


def test_transport_codec_reaches_grouped_path(rng):
    """The A2A codec roundtrip applies to the flat rows (both hops)."""
    from repro.compression import get_compressor

    def make(compressor):
        return MoELayer(
            8, 16, 4, np.random.default_rng(5), top_k=2,
            capacity_factor=2.0, compressor=compressor,
        ).eval()

    x = rng.standard_normal((16, 8)).astype(np.float32)
    clean = make(None)(Tensor(x)).data
    lossy_layer = make(get_compressor("zfp"))
    lossy = lossy_layer(Tensor(x)).data
    assert not np.array_equal(lossy, clean)
    assert np.abs(lossy - clean).max() < 0.15 * np.abs(clean).max() + 1e-3
    # last_dispatched is the flat pre-compression payload (N, M).
    out = lossy_layer.last_gate_output
    kept = int((np.asarray(out.slot_indices) >= 0).sum())
    assert lossy_layer.last_dispatched.shape == (kept, 8)
