"""Parallel sweep runner: a map from :class:`SweepTask` to step results.

The paper's evaluation replays large configuration grids — Figure 8
alone is 675 grid points x 2 policies — and every point is a
deterministic function of (model config, cluster spec, policy, skew).
:func:`run_sweep` partitions the tasks into chunks executed by a
``multiprocessing`` pool, each worker holding its own
:class:`~repro.systems.runner.SystemRunner` so profiler measurements
are still reused within a chunk.  Workers return
:class:`~repro.core.system.StepBreakdown` objects, which pickle as
they are.

Because the simulator is deterministic, the parallel runner produces
results identical to the serial one (asserted in
``tests/systems/test_sweep.py``); result order always follows task
order regardless of worker scheduling.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..cluster.costmodel import check_count
from ..cluster.topology import ClusterSpec
from ..core.imbalance import RoutingSkew
from ..core.system import StepBreakdown, SystemPolicy, simulate_model_step
from ..models.configs import MoEModelConfig
from .runner import SystemRunner

#: Chunks handed to the pool per worker process.
CHUNKS_PER_PROCESS = 2


@dataclass(frozen=True)
class SweepTask:
    """One point of a sweep: simulate ``cfg`` under ``policy``.

    ``skew`` optionally injects dynamic routing imbalance (the
    imbalance ablation sweeps it).
    """

    cfg: MoEModelConfig
    policy: SystemPolicy
    skew: Optional[RoutingSkew] = None


def _simulate(runner: SystemRunner, task: SweepTask) -> StepBreakdown:
    return simulate_model_step(
        task.cfg,
        runner.spec,
        task.policy,
        profiler=runner.profiler_for(task.policy),
        skew=task.skew,
    )


def _run_chunk(args: Tuple[ClusterSpec, List[Tuple[int, SweepTask]]]):
    """Worker entry point: simulate one chunk with a private runner."""
    spec, indexed_tasks = args
    runner = SystemRunner(spec)
    return [(idx, _simulate(runner, task)) for idx, task in indexed_tasks]


def default_processes() -> int:
    """Worker count: the CPU count."""
    return os.cpu_count() or 1


def run_sweep(
    tasks: Sequence[SweepTask],
    spec: ClusterSpec,
    processes: Optional[int] = None,
) -> List[StepBreakdown]:
    """Simulate every task, in task order, in parallel.

    ``processes`` (an integer >= 1) defaults to :func:`default_processes`;
    1 runs serially in-process with a single shared runner (maximal
    profiler reuse).
    """
    tasks = list(tasks)
    if processes is None:
        processes = default_processes()
    processes = min(check_count("processes", processes), len(tasks) or 1)

    if processes == 1:
        runner = SystemRunner(spec)
        return [_simulate(runner, task) for task in tasks]

    indexed = list(enumerate(tasks))
    num_chunks = min(len(indexed), processes * CHUNKS_PER_PROCESS)
    chunks = [(spec, indexed[i::num_chunks]) for i in range(num_chunks)]
    import multiprocessing

    results: List[Optional[StepBreakdown]] = [None] * len(tasks)
    with multiprocessing.Pool(processes) as pool:
        for chunk_result in pool.map(_run_chunk, chunks):
            for idx, breakdown in chunk_result:
                results[idx] = breakdown
    return results
