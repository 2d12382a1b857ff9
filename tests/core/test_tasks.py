"""Tests of the task model (paper Section 4.1)."""

import pytest

from repro.core import CHAIN, Task, TaskDurations, TaskKind, make_tasks
from repro.core.system import BACKWARD_EXPERT_FACTOR


def test_chain_order_matches_paper():
    assert [k.name for k in CHAIN] == ["C1", "A1", "D1", "E", "C2", "A2", "D2"]


def test_comm_classification():
    assert TaskKind.A1.is_comm
    assert TaskKind.A2.is_comm
    for kind in (TaskKind.C1, TaskKind.D1, TaskKind.E, TaskKind.C2, TaskKind.D2):
        assert not kind.is_comm


def test_make_tasks_count_is_7r():
    for r in (1, 2, 5):
        tasks = make_tasks(r)
        assert len(tasks) == 7 * r
        assert len(set(tasks)) == 7 * r
    with pytest.raises(ValueError):
        make_tasks(0)


def test_predecessor_chain():
    t = Task(TaskKind.E, 1)
    assert t.predecessor() == Task(TaskKind.D1, 1)
    assert Task(TaskKind.C1, 0).predecessor() is None
    chain = []
    cur = Task(TaskKind.D2, 0)
    while cur is not None:
        chain.append(cur.kind)
        cur = cur.predecessor()
    assert list(reversed(chain)) == list(CHAIN)


def test_task_repr():
    assert repr(Task(TaskKind.A1, 0)) == "A1^1"
    assert repr(Task(TaskKind.D2, 2)) == "D2^3"


def test_durations_lookup_and_totals():
    d = TaskDurations(compress=1.0, a2a=3.0, decompress=2.0, expert=5.0)
    assert d.of(TaskKind.C1) == d.of(TaskKind.C2) == 1.0
    assert d.of(TaskKind.A1) == d.of(TaskKind.A2) == 3.0
    assert d.of(TaskKind.D1) == d.of(TaskKind.D2) == 2.0
    assert d.of(TaskKind.E) == 5.0
    # Eq. 10: per chunk 2C + 2A + 2D + E.
    assert d.total_sequential(1) == pytest.approx(17.0)
    assert d.total_sequential(3) == pytest.approx(51.0)
    assert d.comm_total(2) == pytest.approx(12.0)
    assert d.comp_total(2) == pytest.approx(22.0)


def test_durations_validation():
    with pytest.raises(ValueError):
        TaskDurations(-1.0, 1.0, 1.0, 1.0)


def test_backward_durations_swap_codec_roles():
    d = TaskDurations(compress=1.0, a2a=3.0, decompress=2.0, expert=5.0)
    b = d.backward(BACKWARD_EXPERT_FACTOR)
    assert b.compress == 2.0
    assert b.decompress == 1.0
    assert b.a2a == 3.0
    assert b.expert == 10.0
    # Total work is conserved up to the expert factor.
    assert b.total_sequential(2) == pytest.approx(
        d.total_sequential(2) + 5.0 * 2
    )


def test_backward_schedule_symmetry():
    """The backward pass is the same scheduling problem: OptSche's
    makespan on backward durations is optimal there too (spot check
    against brute force)."""
    from repro.core.scheduler import get_scheduler

    d = TaskDurations(0.7, 2.5, 1.1, 3.0).backward(BACKWARD_EXPERT_FACTOR)
    opt = get_scheduler("optsche").schedule(2, d).makespan
    best = get_scheduler("brute-force").schedule(2, d).makespan
    assert opt == pytest.approx(best)
