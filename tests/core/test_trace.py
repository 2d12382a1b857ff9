"""Tests of the chrome-trace events of a schedule."""

import pytest

from repro.core import TaskDurations, get_scheduler
from repro.core.trace import COMM_TID, COMP_TID, schedule_to_trace_events


@pytest.fixture
def schedule():
    durations = TaskDurations(0.5, 2.0, 0.4, 1.5)
    return get_scheduler("optsche").schedule(2, durations)


def test_events_cover_all_tasks(schedule):
    events = schedule_to_trace_events(schedule)
    assert len(events) == 14  # 7 tasks x 2 chunks
    names = {e["name"] for e in events}
    assert "C1^1" in names and "A2^2" in names


def test_events_use_correct_threads(schedule):
    for event in schedule_to_trace_events(schedule):
        if event["cat"] == "comm":
            assert event["tid"] == COMM_TID
        else:
            assert event["tid"] == COMP_TID


def test_durations_match_timeline(schedule):
    events = {e["name"]: e for e in schedule_to_trace_events(schedule)}
    for task, (start, end) in schedule.timeline.items():
        event = events[str(task)]
        assert event["ts"] == pytest.approx(start * 1e6)
        assert event["dur"] == pytest.approx((end - start) * 1e6)

