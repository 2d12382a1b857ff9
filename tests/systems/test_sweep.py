"""Tests for the parallel sweep runner.

The simulator is deterministic, so the one hard guarantee worth
testing is identity: serial and parallel runs of the same task list
must produce exactly the same step records, in task order.
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster import paper_testbed
from repro.core import RoutingSkew, SystemPolicy
from repro.models import ablation_layer, bert_large_moe, ct_moe
from repro.systems import (
    SweepTask,
    SystemRunner,
    fastermoe,
    run_sweep,
    schemoe,
    tutel,
)


@pytest.fixture
def tasks():
    cfgs = [ct_moe(12), ct_moe(24)]
    return [
        SweepTask(cfg, policy)
        for cfg in cfgs
        for policy in (tutel(), schemoe())
    ]


def test_matches_direct_simulation(tasks):
    spec = paper_testbed()
    runner = SystemRunner(spec)
    direct = [
        runner.step(task.cfg, task.policy) for task in tasks
    ]
    assert run_sweep(tasks, spec, processes=1) == direct


def test_parallel_byte_identical_to_serial(tasks):
    spec = paper_testbed()
    serial = run_sweep(tasks, spec, processes=1)
    assert run_sweep(tasks, spec, processes=2) == serial


def test_parallel_carries_oom_records():
    """Workers pickle whole records, schedules and infinities included.

    Covers a healthy step, a memory OOM and an A2A that runs out of
    memory (infinite durations, makespans and task times).
    """
    spec = paper_testbed()
    huge = dataclasses.replace(ablation_layer(), batch_per_gpu=32)
    tasks = [
        SweepTask(ct_moe(12), schemoe()),
        SweepTask(bert_large_moe(), fastermoe()),
        SweepTask(huge, SystemPolicy(name="1dh", a2a="1dh")),
    ]
    serial = run_sweep(tasks, spec, processes=1)
    assert [r.oom for r in serial] == [False, True, True]
    assert np.isinf(serial[2].moe_layer.durations.a2a)
    assert np.isinf(serial[2].moe_layer.forward_s)
    assert run_sweep(tasks, spec, processes=2) == serial


def test_results_follow_task_order(tasks):
    spec = paper_testbed()
    first = run_sweep(tasks, spec, processes=2)
    second = run_sweep(list(reversed(tasks)), spec, processes=2)
    assert second == list(reversed(first))


def test_skew_changes_result():
    spec = paper_testbed()
    cfg = ct_moe(12)
    # A capacity-free policy slows down under skew.
    flat, skewed = run_sweep(
        [
            SweepTask(cfg, fastermoe()),
            SweepTask(cfg, fastermoe(), skew=RoutingSkew(2.0)),
        ],
        spec,
        processes=1,
    )
    assert flat.total_s != skewed.total_s


@pytest.mark.parametrize("processes", [0, -3, 1.5])
def test_bad_pool_size_raises(tasks, processes):
    """A pool size below 1 used to run serially without a word."""
    with pytest.raises((ValueError, TypeError), match="processes"):
        run_sweep(tasks, paper_testbed(), processes=processes)
