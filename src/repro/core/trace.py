"""Chrome-trace export of schedules (view in chrome://tracing / Perfetto).

Turns a :class:`~repro.core.scheduler.ScheduleResult` into the Trace
Event JSON format, with the computing stream and the communication
stream as separate "threads" — the same visualization the paper's
Fig. 3/5 timelines convey.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from .scheduler import ScheduleResult
from .tasks import Task, TaskKind

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


def export_schedule_trace(
    result: ScheduleResult,
    path: Optional[str] = None,
    process_name: str = "MoE layer",
) -> str:
    """Serialize one schedule as a Trace Event JSON string.

    When ``path`` is given the JSON is also written there.
    """
    events = _thread_metadata(0)
    events.append(
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "args": {"name": process_name},
        }
    )
    events.extend(schedule_to_trace_events(result))
    payload = json.dumps({"traceEvents": events}, indent=1)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    return payload
