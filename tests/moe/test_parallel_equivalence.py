"""Equivalence of single-process and literal multi-worker execution.

These tests back the reproduction's central substitution claim: the
single-process MoE layer used for the convergence study computes
exactly what P synchronized expert-parallel workers compute with real
dispatch/exchange/combine buffer movement (paper Fig. 2).
"""

import numpy as np
import pytest

from repro.compression import get_compressor
from repro.moe import MoELayer
from repro.moe.parallel import ExpertParallelGroup
from repro.nn import Tensor


def make_layer(
    rng, compressor=None, num_experts=4, capacity_factor=4.0, top_k=2
):
    # capacity_factor >= E/k guarantees no token is ever dropped, which
    # is required for exact equivalence (drop resolution is FCFS in
    # token order and depends on how tokens are grouped).
    return MoELayer(
        model_dim=16,
        hidden_dim=24,
        num_experts=num_experts,
        rng=rng,
        top_k=top_k,
        capacity_factor=capacity_factor,
        compressor=compressor,
    )


@pytest.mark.parametrize("num_workers", [1, 2, 4])
def test_parallel_matches_single_process(rng, num_workers):
    layer = make_layer(rng).eval()
    group = ExpertParallelGroup(layer, num_workers=num_workers)
    tokens = rng.standard_normal((24, 16)).astype(np.float32)
    shards = np.split(tokens, num_workers)

    single = layer(Tensor(tokens)).data
    parallel = group.forward_concatenated(list(shards))
    np.testing.assert_allclose(parallel, single, rtol=1e-5, atol=1e-6)


def test_parallel_with_uneven_shards(rng):
    layer = make_layer(rng).eval()
    group = ExpertParallelGroup(layer, num_workers=2)
    tokens = rng.standard_normal((18, 16)).astype(np.float32)
    shards = [tokens[:6], tokens[6:]]
    single = layer(Tensor(tokens)).data
    parallel = group.forward_concatenated(shards)
    np.testing.assert_allclose(parallel, single, rtol=1e-5, atol=1e-6)


def test_traffic_accounting(rng):
    layer = make_layer(rng).eval()
    group = ExpertParallelGroup(layer, num_workers=4)
    tokens = rng.standard_normal((32, 16)).astype(np.float32)
    group.forward(list(np.split(tokens, 4)))
    dispatch = group.last_dispatch_traffic
    combine = group.last_combine_traffic
    assert dispatch.total_bytes > 0
    # Every (src, dst) pair ships the flat routed rows destined for
    # dst's experts — no capacity padding in the payload.
    assert dispatch.matrix.shape == (4, 4)
    assert dispatch.off_diagonal_bytes > 0
    # Combine returns exactly the dispatched volume (row for row).
    assert combine.total_bytes == pytest.approx(dispatch.total_bytes)


def test_compressed_parallel_is_close_not_exact(rng):
    clean_rng = np.random.default_rng(7)
    layer = make_layer(clean_rng).eval()
    group = ExpertParallelGroup(layer, num_workers=2)
    tokens = rng.standard_normal((16, 16)).astype(np.float32)
    shards = [tokens[:8], tokens[8:]]
    clean = group.forward_concatenated(shards)

    lossy_rng = np.random.default_rng(7)
    lossy_layer = make_layer(lossy_rng, compressor=get_compressor("zfp")).eval()
    lossy_group = ExpertParallelGroup(lossy_layer, num_workers=2)
    lossy = lossy_group.forward_concatenated(shards)
    assert not np.array_equal(lossy, clean)
    assert np.abs(lossy - clean).max() < 0.15 * np.abs(clean).max() + 1e-3


def test_validation_errors(rng):
    layer = make_layer(rng)
    with pytest.raises(ValueError):
        ExpertParallelGroup(layer, num_workers=3)  # 4 % 3 != 0
    group = ExpertParallelGroup(layer, num_workers=2)
    with pytest.raises(ValueError):
        group.forward([np.zeros((4, 16), np.float32)])  # wrong shard count
    with pytest.raises(ValueError):
        group.forward(
            [np.zeros((4, 8), np.float32), np.zeros((4, 8), np.float32)]
        )  # wrong model dim


def test_expert_placement(rng):
    layer = make_layer(rng, num_experts=8)
    group = ExpertParallelGroup(layer, num_workers=4)
    assert group.placement.counts() == (2, 2, 2, 2)
    assert group.placement.owners == (0, 0, 1, 1, 2, 2, 3, 3)
    assert group.placement.version == 0


@pytest.mark.parametrize("top_k", [2, 3, 4])
def test_non_contiguous_placement_matches_single_process(rng, top_k):
    """Bit for bit at any top-k: with three or more contributions per
    token the sum depends on their order, and D2 adds them up in the
    single-process combine's expert-major order."""
    from repro.moe import ExpertPlacement

    layer = make_layer(
        rng, num_experts=8, capacity_factor=8 / top_k, top_k=top_k
    ).eval()
    tokens = rng.standard_normal((24, 16)).astype(np.float32)
    single = layer(Tensor(tokens)).data
    placement = ExpertPlacement(
        8, 4, owners=(3, 0, 2, 0, 1, 3, 0, 2), version=5
    )
    for pipeline in ("sync", "overlap"):
        group = ExpertParallelGroup(
            layer, num_workers=4, pipeline=pipeline, num_chunks=2,
            placement=placement,
        )
        out = group.forward_concatenated(list(np.split(tokens, 4)))
        np.testing.assert_array_equal(out, single)


def test_unequal_placement_counts(rng):
    from repro.moe import ExpertPlacement

    layer = make_layer(rng, num_experts=8).eval()
    placement = ExpertPlacement(8, 3, owners=(0, 0, 0, 0, 1, 1, 2, 2))
    group = ExpertParallelGroup(layer, num_workers=3, placement=placement)
    assert group.placement.counts() == (4, 2, 2)
    tokens = rng.standard_normal((24, 16)).astype(np.float32)
    out = group.forward_concatenated([tokens[:8], tokens[8:16], tokens[16:]])
    np.testing.assert_array_equal(out, layer(Tensor(tokens)).data)


def test_placement_shape_validation(rng):
    from repro.moe import ExpertPlacement

    layer = make_layer(rng, num_experts=8).eval()
    group = ExpertParallelGroup(layer, num_workers=4)
    with pytest.raises(ValueError, match="experts"):
        group.set_placement(ExpertPlacement.contiguous(4, 4))
    with pytest.raises(ValueError, match="workers"):
        group.set_placement(ExpertPlacement.contiguous(8, 2))
    with pytest.raises(ValueError):
        ExpertParallelGroup(
            layer, num_workers=2, placement=ExpertPlacement.contiguous(8, 4)
        )
