"""Differential property tests of the expert-parallel group (hypothesis).

Draws the capacity factor, the expert placement (contiguous, permuted
or unequal), a dead-worker set (never every worker), the chunk count
and the pipeline mode, then checks the group against two oracles:

* with no codec, :meth:`ExpertParallelGroup.forward` equals the dense
  single-process reference (``legacy_dense``) applied to each
  worker's shard with the same dead experts (each worker gates only its own shard, so the
  reference is exact up to float reassociation — the tolerance of the
  existing equivalence suites);
* with zfp on the wire, the overlap pipeline equals sync bit for bit
  at the same chunk count (both modes run the same task closures).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import get_compressor
from repro.moe import ExpertPlacement, MoELayer
from repro.moe.parallel import ExpertParallelGroup
from repro.nn import Tensor

from . import legacy_dense

NUM_EXPERTS = 8
MODEL_DIM = 8


def make_layer(capacity_factor, compressor=None):
    return MoELayer(
        MODEL_DIM, 16, NUM_EXPERTS, np.random.default_rng(5), top_k=2,
        capacity_factor=capacity_factor, compressor=compressor,
    ).eval()


@st.composite
def group_configs(draw):
    num_workers = draw(st.sampled_from([2, 4]))
    kind = draw(st.sampled_from(["contiguous", "permuted", "unequal"]))
    contiguous = ExpertPlacement.contiguous(NUM_EXPERTS, num_workers)
    if kind == "contiguous":
        owners = contiguous.owners
    elif kind == "permuted":
        owners = draw(st.permutations(contiguous.owners))
    else:
        # Every worker keeps at least one expert, so killing any
        # proper subset of workers never kills every expert.
        owners = draw(
            st.lists(
                st.integers(0, num_workers - 1),
                min_size=NUM_EXPERTS,
                max_size=NUM_EXPERTS,
            ).filter(
                lambda o: len(set(o)) == num_workers
                and len(set(np.bincount(o))) > 1
            )
        )
    placement = ExpertPlacement(NUM_EXPERTS, num_workers, owners=owners)
    dead = draw(
        st.sets(st.integers(0, num_workers - 1), max_size=num_workers - 1)
    )
    shard_sizes = draw(
        st.lists(
            st.integers(0, 9), min_size=num_workers, max_size=num_workers
        )
    )
    return dict(
        capacity_factor=draw(st.sampled_from([0.5, 1.0, 2.0])),
        placement=placement,
        dead=dead,
        num_chunks=draw(st.integers(1, 4)),
        shard_sizes=shard_sizes,
        seed=draw(st.integers(0, 2**16)),
    )


def make_shards(cfg):
    rng = np.random.default_rng(cfg["seed"])
    return [
        rng.standard_normal((n, MODEL_DIM)).astype(np.float32)
        for n in cfg["shard_sizes"]
    ]


def make_group(layer, cfg, pipeline):
    group = ExpertParallelGroup(
        layer,
        cfg["placement"].num_workers,
        pipeline=pipeline,
        num_chunks=cfg["num_chunks"],
        placement=cfg["placement"],
    )
    group.set_dead_workers(cfg["dead"])
    return group


@settings(max_examples=40, deadline=None)
@given(cfg=group_configs(), pipeline=st.sampled_from(["sync", "overlap"]))
def test_group_matches_single_process_reference(cfg, pipeline):
    shards = make_shards(cfg)
    layer = make_layer(cfg["capacity_factor"])
    group = make_group(layer, cfg, pipeline)
    out = group.forward_concatenated(shards)

    ref_layer = make_layer(cfg["capacity_factor"])
    ref_layer.set_dead_experts(group.dead_experts)
    ref = np.concatenate(
        [legacy_dense.forward(ref_layer, Tensor(s)).data for s in shards],
        axis=0,
    )
    np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-6)


@settings(max_examples=25, deadline=None)
@given(cfg=group_configs())
def test_zfp_overlap_equals_sync_bitwise(cfg):
    shards = make_shards(cfg)
    layer = make_layer(
        cfg["capacity_factor"], compressor=get_compressor("zfp")
    )
    sync = make_group(layer, cfg, "sync").forward_concatenated(shards)
    overlap = make_group(layer, cfg, "overlap").forward_concatenated(shards)
    np.testing.assert_array_equal(overlap, sync)
