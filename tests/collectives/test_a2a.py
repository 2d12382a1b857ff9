"""Tests of the all-to-all algorithms (paper Section 5 / Figure 9)."""

import pytest

from repro.cluster import paper_testbed
from repro.collectives import (
    A2AResult,
    available_a2a,
    get_a2a,
    measure_a2a,
    phase_times,
    theoretical_max_speedup,
)
from repro.collectives.ordering import node_aligned_peers, num_intra_rounds


def test_registry_contains_paper_algorithms():
    names = available_a2a()
    for expected in ("nccl", "1dh", "2dh", "pipe"):
        assert expected in names


def test_get_unknown_a2a_raises():
    with pytest.raises(KeyError):
        get_a2a("missing")


def test_node_aligned_order_is_a_permutation(paper_spec):
    for rank in range(paper_spec.world_size):
        peers = node_aligned_peers(paper_spec, rank)
        assert sorted(peers) == list(range(paper_spec.world_size))
        assert peers[0] == rank  # self-copy first


def test_node_aligned_rounds_are_class_consistent(paper_spec):
    """In round t every rank exchanges over the same link class."""
    world = paper_spec.world_size
    orders = [node_aligned_peers(paper_spec, r) for r in range(world)]
    intra = num_intra_rounds(paper_spec)
    for t in range(world):
        classes = {
            paper_spec.same_node(r, orders[r][t]) for r in range(world)
        }
        assert classes == {t < intra}


def test_node_aligned_rounds_form_matchings(paper_spec):
    """Each round's send map is a permutation (valid SR pairing)."""
    world = paper_spec.world_size
    orders = [node_aligned_peers(paper_spec, r) for r in range(world)]
    for t in range(world):
        targets = [orders[r][t] for r in range(world)]
        assert sorted(targets) == list(range(world))


@pytest.mark.parametrize("name", ["nccl", "1dh", "2dh", "pipe"])
def test_algorithms_complete_and_report(name, small_spec):
    result = measure_a2a(get_a2a(name), small_spec, 1e6)
    assert isinstance(result, A2AResult)
    assert not result.oom
    assert result.seconds > 0


def test_traffic_conservation(small_spec):
    """Pairwise algorithms move exactly (P-1)/P of S per GPU."""
    for name in ("nccl", "pipe"):
        result = measure_a2a(get_a2a(name), small_spec, 4e6)
        total = (
            result.stats["intra_bytes"] + result.stats["inter_bytes"]
        )
        world = small_spec.world_size
        expected = world * 4e6 * (world - 1) / world
        assert total == pytest.approx(expected)


def test_pipe_beats_nccl_when_bandwidth_bound(paper_spec):
    big = 2e8
    t_nccl = measure_a2a(get_a2a("nccl"), paper_spec, big).seconds
    t_pipe = measure_a2a(get_a2a("pipe"), paper_spec, big).seconds
    assert t_pipe < t_nccl
    # Paper Fig. 9(c): ~1.4x at >= 200 MB.
    assert 1.25 < t_nccl / t_pipe < 1.6


def test_pipe_beats_2dh_by_about_2x_at_large(paper_spec):
    big = 6.4e8
    t_2dh = measure_a2a(get_a2a("2dh"), paper_spec, big).seconds
    t_pipe = measure_a2a(get_a2a("pipe"), paper_spec, big).seconds
    assert 1.7 < t_2dh / t_pipe < 2.4


def test_1dh_is_slowest_and_ooms_at_large(paper_spec):
    median = 1e7
    times = {
        name: measure_a2a(get_a2a(name), paper_spec, median).seconds
        for name in ("nccl", "1dh", "2dh", "pipe")
    }
    assert times["1dh"] == max(times.values())
    # Paper Fig. 9(c): 1DH-A2A runs OOM with large tensors.
    big = measure_a2a(get_a2a("1dh"), paper_spec, 2e9)
    assert big.oom
    assert big.seconds == float("inf")


def test_small_messages_near_parity(paper_spec):
    """Paper Fig. 9(a): pipe gains only a few % at small sizes."""
    small = 1e4
    t_nccl = measure_a2a(get_a2a("nccl"), paper_spec, small).seconds
    t_pipe = measure_a2a(get_a2a("pipe"), paper_spec, small).seconds
    assert t_pipe <= t_nccl
    assert t_nccl / t_pipe < 1.2


def test_simulated_speedup_tracks_eq18(paper_spec):
    """The simulator approaches the paper's analytic bound (Eq. 18)."""
    size = 4e8
    t_nccl = measure_a2a(get_a2a("nccl"), paper_spec, size).seconds
    t_pipe = measure_a2a(get_a2a("pipe"), paper_spec, size).seconds
    simulated = t_nccl / t_pipe
    bound = theoretical_max_speedup(paper_spec, size)
    assert simulated == pytest.approx(bound, rel=0.08)


def test_phase_times_positive(paper_spec):
    t_intra, t_inter = phase_times(paper_spec, 1e8)
    assert t_intra > 0
    assert t_inter > t_intra  # paper testbed is inter-bound


def test_pipe_makespan_is_max_of_phases(paper_spec):
    """Eq. 16: pipe time ~ max(t_intra, t_inter)."""
    size = 4e8
    t_intra, t_inter = phase_times(paper_spec, size)
    t_pipe = measure_a2a(get_a2a("pipe"), paper_spec, size).seconds
    assert t_pipe == pytest.approx(max(t_intra, t_inter), rel=0.05)


def test_determinism(small_spec):
    a = measure_a2a(get_a2a("pipe"), small_spec, 3e6).seconds
    b = measure_a2a(get_a2a("pipe"), small_spec, 3e6).seconds
    assert a == b


def test_single_node_cluster_all_intra():
    from repro.cluster import ClusterSpec, LinkModel
    from repro.cluster.presets import rtx2080ti

    spec = ClusterSpec(
        name="one-node",
        num_nodes=1,
        gpus_per_node=4,
        gpu=rtx2080ti(),
        intra_link=LinkModel("i", 1e-6, 2e9),
        inter_link=LinkModel("e", 3e-6, 8e9),
    )
    result = measure_a2a(get_a2a("pipe"), spec, 1e6)
    assert result.stats["inter_messages"] == 0
    assert result.seconds > 0
