"""Unit tests of cluster topology and transfer primitives."""

import math

import pytest

from repro.cluster import (
    ClusterSpec,
    LinkModel,
    SimCluster,
    SimulatedOOM,
    paper_testbed,
)
from repro.cluster.presets import rtx2080ti
from repro.collectives import get_a2a, measure_a2a


def test_spec_rank_arithmetic(paper_spec):
    assert paper_spec.world_size == 32
    assert paper_spec.node_of(0) == 0
    assert paper_spec.node_of(31) == 7
    assert paper_spec.local_rank(5) == 1
    assert paper_spec.same_node(4, 7)
    assert not paper_spec.same_node(3, 4)
    assert paper_spec.ranks_of_node(1) == [4, 5, 6, 7]


def test_spec_rank_out_of_range(paper_spec):
    with pytest.raises(ValueError):
        paper_spec.node_of(32)
    with pytest.raises(ValueError):
        paper_spec.node_of(-1)
    with pytest.raises(ValueError):
        paper_spec.ranks_of_node(8)


def test_spec_validation():
    with pytest.raises(ValueError):
        ClusterSpec(
            name="bad",
            num_nodes=0,
            gpus_per_node=4,
            gpu=rtx2080ti(),
            intra_link=LinkModel("l", 1e-6, 1e9),
            inter_link=LinkModel("l", 1e-6, 1e9),
        )


def test_bulk_link_defaults_to_intra():
    spec = ClusterSpec(
        name="x",
        num_nodes=1,
        gpus_per_node=2,
        gpu=rtx2080ti(),
        intra_link=LinkModel("l", 1e-6, 1e9),
        inter_link=LinkModel("l", 1e-6, 1e9),
    )
    assert spec.intra_bulk_link is spec.intra_link


def test_intra_transfer_uses_fabric(small_spec):
    cluster = SimCluster(small_spec)

    def xfer():
        yield from cluster.transfer(0, 1, 2e9)

    cluster.engine.process(xfer())
    cluster.engine.run()
    expected = small_spec.intra_link.transfer_time(2e9)
    assert cluster.engine.now == pytest.approx(expected)
    assert cluster.stats["intra_messages"] == 1
    assert cluster.stats["inter_bytes"] == 0


def test_bulk_intra_transfer_uses_bulk_link(small_spec):
    cluster = SimCluster(small_spec)

    def xfer():
        yield from cluster.transfer(0, 1, 2e9, bulk=True)

    cluster.engine.process(xfer())
    cluster.engine.run()
    expected = small_spec.intra_bulk_link.transfer_time(2e9)
    assert cluster.engine.now == pytest.approx(expected)


def test_inter_transfer_uses_nic(small_spec):
    cluster = SimCluster(small_spec)

    def xfer():
        yield from cluster.transfer(0, 2, 1e9)

    cluster.engine.process(xfer())
    cluster.engine.run()
    expected = small_spec.inter_link.transfer_time(1e9)
    assert cluster.engine.now == pytest.approx(expected)
    assert cluster.stats["inter_messages"] == 1


def test_self_transfer_is_memcpy(small_spec):
    cluster = SimCluster(small_spec)

    def xfer():
        yield from cluster.transfer(3, 3, 1e9)

    cluster.engine.process(xfer())
    cluster.engine.run()
    assert cluster.engine.now == pytest.approx(
        small_spec.gpu.memory_time(2e9)
    )
    assert cluster.stats["intra_messages"] == 0


def test_concurrent_intra_and_inter_overlap(small_spec):
    """Different resources -> concurrent; same resource -> serialized."""
    cluster = SimCluster(small_spec)
    done = {}

    def xfer(tag, src, dst, nbytes):
        yield from cluster.transfer(src, dst, nbytes)
        done[tag] = cluster.engine.now

    cluster.engine.process(xfer("intra", 0, 1, 1e9))
    cluster.engine.process(xfer("inter", 0, 2, 1e9))
    cluster.engine.run()
    t_intra = small_spec.intra_link.transfer_time(1e9)
    t_inter = small_spec.inter_link.transfer_time(1e9)
    assert done["intra"] == pytest.approx(t_intra)
    assert done["inter"] == pytest.approx(t_inter)

    # Two transfers on the same NIC serialize.
    cluster2 = SimCluster(small_spec)
    done2 = {}

    def xfer2(tag, dst):
        yield from cluster2.transfer(0, dst, 1e9)
        done2[tag] = cluster2.engine.now

    cluster2.engine.process(xfer2("a", 2))
    cluster2.engine.process(xfer2("b", 3))
    cluster2.engine.run()
    assert max(done2.values()) == pytest.approx(2 * t_inter)


def test_negative_transfer_rejected(small_spec):
    cluster = SimCluster(small_spec)
    with pytest.raises(ValueError):
        list(cluster.transfer(0, 1, -1.0))


@pytest.mark.parametrize(
    "src, dst", [(-1, 0), (0, -1), (4, 0), (0, 4), (-1, -1), (4, 4)]
)
def test_transfer_rejects_out_of_range_rank(small_spec, src, dst):
    """A bad rank raises before any stat moves or any resource is held."""
    cluster = SimCluster(small_spec)
    before = cluster.stats
    with pytest.raises(ValueError, match="out of range"):
        next(cluster.transfer(src, dst, 1e6))
    assert cluster.stats == before
    # Nothing was left holding a link: a valid transfer takes exactly
    # one message's time on each resource.
    start = cluster.engine.now
    cluster.engine.process(cluster.transfer(0, 1, 1e6))
    cluster.engine.process(cluster.transfer(0, 2, 1e6))
    cluster.engine.run()
    assert cluster.engine.now - start == max(
        small_spec.intra_link.transfer_time(1e6),
        small_spec.inter_link.transfer_time(1e6),
    )


def test_memory_accounting_and_oom(small_spec):
    cluster = SimCluster(small_spec)
    gpu = cluster.gpu(0)
    gpu.allocate(5e9)
    gpu.allocate(4e9)
    assert gpu.allocated_bytes == pytest.approx(9e9)
    with pytest.raises(SimulatedOOM):
        gpu.allocate(5e9)
    gpu.free(9e9)
    assert gpu.allocated_bytes >= 0
    assert gpu.peak_allocated_bytes >= 9e9


def test_nan_memory_sizes_rejected(small_spec):
    """NaN slips past a `< 0` check; inf is a size and reports OOM."""
    gpu = SimCluster(small_spec).gpu(0)
    gpu.allocate(1e9)
    with pytest.raises(ValueError, match="nan"):
        gpu.allocate(math.nan)
    with pytest.raises(ValueError, match="nan"):
        gpu.free(math.nan)
    assert gpu.allocated_bytes == 1e9
    with pytest.raises(ValueError, match="nan"):
        measure_a2a(get_a2a("pipe"), paper_testbed(), math.nan)
    assert measure_a2a(get_a2a("pipe"), paper_testbed(), math.inf).oom


def test_compute_occupies_gpu(small_spec):
    cluster = SimCluster(small_spec)
    done = []

    def kernel(rank, dt):
        yield from cluster.compute(rank, dt)
        done.append(cluster.engine.now)

    cluster.engine.process(kernel(0, 1.0))
    cluster.engine.process(kernel(0, 1.0))  # same GPU: serializes
    cluster.engine.process(kernel(1, 1.0))  # other GPU: parallel
    cluster.engine.run()
    assert sorted(done) == [1.0, 1.0, 2.0]


def test_nan_compute_rejected():
    cluster = SimCluster(paper_testbed())
    cluster.engine.process(cluster.compute(0, math.nan))
    with pytest.raises(ValueError, match="nan"):
        cluster.engine.run()
    assert cluster.engine.now == 0.0
