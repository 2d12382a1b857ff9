"""Chrome-trace export of schedules (view in chrome://tracing / Perfetto).

Turns a :class:`~repro.core.scheduler.ScheduleResult` into Trace
Event Format events, with the computing stream and the communication
stream as separate "threads" — the same visualization the paper's
Fig. 3/5 timelines convey.  ``benchmarks/e2e/run.py --trace`` puts
the overlap executor's task timeline into its Perfetto traces this way.
"""

from __future__ import annotations

from typing import Dict, List

from .scheduler import ScheduleResult
from .tasks import TaskKind

#: Trace-viewer category colors keyed by task kind.
_COLORS = {
    TaskKind.C1: "thread_state_runnable",
    TaskKind.C2: "thread_state_runnable",
    TaskKind.D1: "thread_state_iowait",
    TaskKind.D2: "thread_state_iowait",
    TaskKind.E: "thread_state_running",
    TaskKind.A1: "rail_response",
    TaskKind.A2: "rail_response",
}

COMP_TID = 0
COMM_TID = 1


def schedule_to_trace_events(
    result: ScheduleResult,
    pid: int = 0,
    time_offset_s: float = 0.0,
) -> List[Dict]:
    """Trace events (microsecond timestamps) of one schedule."""
    events: List[Dict] = []
    for task, (start, end) in sorted(
        result.timeline.items(), key=lambda kv: kv[1][0]
    ):
        events.append(
            {
                "name": str(task),
                "cat": "comm" if task.is_comm else "comp",
                "ph": "X",
                "ts": (time_offset_s + start) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": pid,
                "tid": COMM_TID if task.is_comm else COMP_TID,
                "cname": _COLORS[task.kind],
                "args": {"chunk": task.chunk, "kind": task.kind.name},
            }
        )
    return events


def _thread_metadata(pid: int) -> List[Dict]:
    return [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": COMP_TID,
            "args": {"name": "compute stream"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": COMM_TID,
            "args": {"name": "communication stream"},
        },
    ]
