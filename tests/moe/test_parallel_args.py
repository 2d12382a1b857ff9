"""Constructor arguments of the expert-parallel group that must not pass.

A bad ``link_bandwidth`` or ``num_chunks`` is rejected at construction,
with a message naming the argument, instead of failing inside a task
(a NaN wire time) or being silently truncated (a fractional chunk
count).
"""

import pytest

from repro.moe.parallel import ExpertParallelGroup

from .test_pipeline_overlap import make_layer


@pytest.mark.parametrize("bandwidth", [float("nan"), float("inf")])
def test_rejects_non_finite_link_bandwidth(bandwidth):
    with pytest.raises(ValueError, match="link_bandwidth"):
        ExpertParallelGroup(make_layer("topk"), 4, link_bandwidth=bandwidth)


@pytest.mark.parametrize("num_chunks", [2.7, float("nan")])
def test_rejects_non_integral_num_chunks(num_chunks):
    with pytest.raises(ValueError, match="num_chunks"):
        ExpertParallelGroup(make_layer("topk"), 4, num_chunks=num_chunks)


def test_integral_float_num_chunks_is_accepted():
    group = ExpertParallelGroup(make_layer("topk"), 4, num_chunks=3.0)
    assert group.num_chunks == 3 and isinstance(group.num_chunks, int)
