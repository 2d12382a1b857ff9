"""Real threaded execution of the 7r task graph (paper Section 4).

Everything in :mod:`repro.core.scheduler` evaluates schedules in
*simulated* time.  This module runs the same task graph with real
work: callers hand :class:`StreamExecutor` one callable per
:class:`~repro.core.tasks.Task` and it drives them on two worker
threads — one per stream, mirroring the paper's resource model — in
exactly the FIFO enqueue orders a registered
:class:`~repro.core.scheduler.Scheduler` policy produces.  Each thread
executes its queue strictly in order, waiting on a task's chain
predecessor (paper Eqs. 4-9) via a per-task event before starting it,
which is precisely the semantics :func:`~repro.core.scheduler.simulate_order`
encodes for simulated durations.

NumPy releases the GIL inside GEMMs, codec transforms and large
memcpys, so the two threads genuinely overlap: the expert computation
of chunk *i* on the computing stream proceeds while the communication
stream roundtrips chunk *i+1* through the codec — the paper's central
mechanism, made real by
:class:`~repro.moe.parallel.ExpertParallelGroup`'s
``pipeline="overlap"`` mode.

``run_inline`` executes the same callables chunk-major on the calling
thread — the ``pipeline="sync"`` baseline.  Both entry points run
every task exactly once with identical per-task work, so any output
difference between the modes is a scheduling bug, not numerics; the
parity tests assert bit-identical results.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Mapping, Tuple, Union

import numpy as np

from .scheduler import Scheduler, get_scheduler
from .tasks import Task, TaskDurations, make_tasks

__all__ = [
    "PIPELINE_MODES",
    "StreamExecutor",
    "chunk_bounds",
    "run_inline",
    "validate_pipeline",
]

#: Valid values of the ``pipeline`` switch of
#: :class:`~repro.moe.parallel.ExpertParallelGroup` and the CLI.
PIPELINE_MODES = ("sync", "overlap")

#: Orders from the built-in policies ignore durations, but the
#: :class:`Scheduler` interface requires them; unit costs are the
#: neutral choice for ordering real (unprofiled) work.
_UNIT_DURATIONS = TaskDurations(
    compress=1.0, a2a=1.0, decompress=1.0, expert=1.0
)

TaskFns = Mapping[Task, Callable[[], None]]
Timeline = Dict[Task, Tuple[float, float]]


def validate_pipeline(pipeline: str) -> str:
    """Check ``pipeline`` against :data:`PIPELINE_MODES` and return it."""
    if pipeline not in PIPELINE_MODES:
        raise ValueError(
            f"unknown pipeline {pipeline!r}; expected one of {PIPELINE_MODES}"
        )
    return pipeline


def chunk_bounds(num_tokens: int, num_chunks: int):
    """Token-range chunk boundaries, ``np.array_split`` semantics.

    Chunks are contiguous *token* ranges (never splits of one token's
    routed assignments): all k copies of a token stay in one chunk, so
    the per-token combine accumulation order — and therefore the
    float32 output — is independent of the chunk count.  More chunks
    than tokens simply leaves trailing chunks empty.
    """
    div, mod = divmod(int(num_tokens), int(num_chunks))
    sizes = np.full(num_chunks, div, dtype=np.int64)
    sizes[:mod] += 1
    return np.concatenate([[0], np.cumsum(sizes)])


def _check_coverage(partitions: int, fns: TaskFns) -> None:
    expected = set(make_tasks(partitions))
    got = set(fns)
    if got != expected:
        missing = sorted(map(str, expected - got))
        extra = sorted(map(str, got - expected))
        raise ValueError(
            f"task callables do not cover the {7 * partitions} tasks of "
            f"{partitions} chunks (missing {missing}, extra {extra})"
        )


def run_inline(partitions: int, fns: TaskFns) -> Timeline:
    """Execute all tasks chunk-major on the calling thread (no overlap).

    This is the sequential baseline — C1 A1 D1 E C2 A2 D2 per chunk,
    chunks in order, exactly the
    :class:`~repro.core.scheduler.SequentialScheduler` execution — and
    the reference the overlap executor must match bit-for-bit.
    """
    _check_coverage(partitions, fns)
    timeline: Timeline = {}
    t0 = time.perf_counter()
    for task in make_tasks(partitions):
        start = time.perf_counter() - t0
        fns[task]()
        timeline[task] = (start, time.perf_counter() - t0)
    return timeline


class StreamExecutor:
    """Two real FIFO streams driving one layer pass's task graph.

    ``scheduler`` picks the enqueue orders (a registry name or a
    :class:`~repro.core.scheduler.Scheduler` instance) — the *same*
    policy objects that order the simulator, so OptSche's Theorem 1
    order schedules real numpy work.
    """

    def __init__(
        self, scheduler: Union[str, Scheduler] = "optsche"
    ):
        if isinstance(scheduler, str):
            scheduler = get_scheduler(scheduler)
        self.scheduler = scheduler

    def run(self, partitions: int, fns: TaskFns) -> Timeline:
        """Execute every task once; returns the measured timeline.

        Each stream thread walks its enqueue order strictly FIFO,
        blocking on the chain predecessor's completion event before a
        task starts — real-thread :func:`simulate_order` semantics.
        The first task exception aborts the pass (remaining tasks are
        skipped, events still fire so neither stream deadlocks) and is
        re-raised here on the calling thread.
        """
        comp_order, comm_order = self.scheduler.order(
            partitions, _UNIT_DURATIONS
        )
        fns = dict(fns)
        _check_coverage(partitions, fns)
        done = {task: threading.Event() for task in fns}
        abort = threading.Event()
        failures = []
        timeline: Timeline = {}
        t0 = time.perf_counter()

        def drive(order):
            for task in order:
                pred = task.predecessor()
                if pred is not None:
                    done[pred].wait()
                if not abort.is_set():
                    start = time.perf_counter() - t0
                    try:
                        fns[task]()
                        timeline[task] = (start, time.perf_counter() - t0)
                    except BaseException as exc:  # re-raised below
                        failures.append(exc)
                        abort.set()
                # Always fire, even when skipped after an abort, so a
                # task blocked on this one in the other stream wakes
                # up and observes the abort instead of hanging.
                done[task].set()

        threads = [
            threading.Thread(
                target=drive, args=(order,), name=f"stream-{kind}"
            )
            for kind, order in (("comp", comp_order), ("comm", comm_order))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise failures[0]
        return timeline
