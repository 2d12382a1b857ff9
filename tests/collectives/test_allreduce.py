"""Tests of the allreduce cost model."""

import pytest

from repro.cluster import ClusterSpec, LinkModel
from repro.cluster.presets import rtx2080ti
from repro.collectives import hierarchical_allreduce_time


def test_zero_payload_is_free(paper_spec):
    assert hierarchical_allreduce_time(paper_spec, 0.0) == 0.0


def test_negative_payload_rejected(paper_spec):
    with pytest.raises(ValueError):
        hierarchical_allreduce_time(paper_spec, -1.0)


def test_single_gpu_is_free():
    spec = ClusterSpec(
        name="solo",
        num_nodes=1,
        gpus_per_node=1,
        gpu=rtx2080ti(),
        intra_link=LinkModel("i", 1e-6, 1e9),
        inter_link=LinkModel("e", 1e-6, 1e9),
    )
    # Hierarchical with one GPU: no intra peers, no inter nodes.
    assert hierarchical_allreduce_time(spec, 1e8) == 0.0


def test_monotone_in_payload(paper_spec):
    small = hierarchical_allreduce_time(paper_spec, 1e6)
    large = hierarchical_allreduce_time(paper_spec, 1e9)
    assert large > small > 0


def test_bandwidth_scaling(paper_spec):
    """Allreduce time is near-linear in payload (alpha amortized)."""
    t1 = hierarchical_allreduce_time(paper_spec, 1e8)
    t2 = hierarchical_allreduce_time(paper_spec, 2e8)
    assert t2 / t1 == pytest.approx(2.0, rel=0.05)
