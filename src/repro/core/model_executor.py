"""Event-granularity execution of scheduled MoE forward passes.

:func:`~repro.core.scheduler.simulate_order` evaluates a schedule
under the paper's *analytic* resource model (one comp stream, one comm
"resource", fixed task durations).  This module executes the same
schedule on the :class:`~repro.cluster.topology.SimCluster` event
engine instead: every rank runs its computing tasks on its GPU's
compute stream, and every A2A task launches the *actual* configured
collective algorithm — per-message transfers, link contention, stream
FIFO and all.  A one-layer pass reproduces the analytic makespan
(``tests/core/test_executor.py``), closing the loop between the
scheduling theory and the cluster model.

An n-layer pass runs each layer's seven task types in the scheduler's
order, with the layer's attention chunks ``ATTN^i`` prepended to its
computing order (``C1^i`` waits on ``ATTN^i``).  The next layer's
attention only needs the previous layer's combined tokens, which
materialize chunk by chunk as the ``D2^i`` decompressions finish, so
layers are joined in one of two modes:

* ``layer-barrier`` — the paper's model: ``ATTN`` of layer l+1 waits
  on every ``D2`` of layer l and is queued after layer l's whole
  computing order;
* ``chunked`` — cross-layer chunk pipelining (a natural extension in
  the spirit of the paper's future work): ``ATTN^i`` of layer l+1
  waits only on ``D2^i`` of layer l and is queued right after it, so
  the previous layer's trailing A2A hides under the next attention
  (quantified by ``bench_ablation_cross_layer.py``).

A ``layer_only`` config has zero-time attention.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Tuple

from ..cluster.costmodel import check_count
from ..cluster.engine import Event
from ..cluster.streams import make_streams
from ..cluster.topology import ClusterSpec, SimCluster
from ..collectives.base import AllToAll
from ..compression.base import Compressor
from ..models.configs import MoEModelConfig
from .profiler import Profiler
from .scheduler import Scheduler
from .tasks import Task, TaskKind

MODES = ("layer-barrier", "chunked")

#: Task kind of a layer's attention chunk (computing, before C1).
ATTN = "ATTN"

#: ``(layer, kind, chunk)``: one task of an n-layer pass.
TaskKey = Tuple[int, object, int]


@dataclass
class ExecutionReport:
    """Outcome of one event-level forward execution."""

    makespan: float
    task_finish: Dict[TaskKey, float]
    traffic: Dict[str, float]


class ModelExecutor:
    """Runs a model's forward pass per the schedule, at event granularity."""

    def __init__(
        self,
        spec: ClusterSpec,
        a2a: AllToAll,
        compressor: Compressor,
        scheduler: Scheduler,
        partitions: int = 2,
        faults=None,
    ):
        partitions = check_count("partitions", partitions)
        self.spec = spec
        self.a2a = a2a
        self.compressor = compressor
        self.scheduler = scheduler
        self.partitions = partitions
        #: Optional :class:`~repro.faults.FaultPlan` applied to every
        #: execution.  Profiling (and therefore the schedule) stays
        #: *healthy*: the scheduler plans for the cluster it believes
        #: it has, and the faults hit at execution time — exactly the
        #: mismatch a straggler study wants to measure.
        self.faults = faults
        self._profiler = Profiler(spec, a2a=a2a, compressor=compressor)

    def run(
        self, cfg: MoEModelConfig, mode: str = "chunked"
    ) -> ExecutionReport:
        """Execute the forward pass of ``cfg``'s ``num_layers`` blocks."""
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        r = self.partitions
        durations = self._profiler.profile_layer(cfg, r)
        comp_order, comm_order = self.scheduler.order(r, durations)
        attn_seconds = self._profiler.attention_seconds(cfg) / r
        wire_chunk = self.compressor.compressed_bytes(cfg.a2a_bytes / r)

        # Whole-model stream queues: every layer in the scheduler's
        # order, attention placed per ``mode``.
        chunked = mode == "chunked"
        layers = cfg.num_layers
        comp: List[TaskKey] = []
        comm: List[TaskKey] = []
        for layer in range(layers):
            if layer == 0 or not chunked:
                comp.extend((layer, ATTN, c) for c in range(r))
            for task in comp_order:
                comp.append((layer, task.kind, task.chunk))
                if chunked and task.kind is TaskKind.D2 and layer + 1 < layers:
                    comp.append((layer + 1, ATTN, task.chunk))
            comm.extend((layer, task.kind, task.chunk) for task in comm_order)

        def deps(key: TaskKey) -> List[TaskKey]:
            layer, kind, chunk = key
            if kind == ATTN:
                if layer == 0:
                    return []
                if chunked:
                    return [(layer - 1, TaskKind.D2, chunk)]
                return [(layer - 1, TaskKind.D2, c) for c in range(r)]
            if kind is TaskKind.C1:
                return [(layer, ATTN, chunk)]
            return [(layer, Task(kind, chunk).predecessor().kind, chunk)]

        cluster = SimCluster(self.spec, faults=self.faults)
        engine = cluster.engine
        streams = make_streams(engine, self.spec.world_size)
        done: Dict[TaskKey, Event] = {}

        # Computing tasks: identical work on every rank's compute
        # stream, gated on the task's dependencies.
        def submit_comp(key: TaskKey, after: List[Event]) -> Event:
            kind = key[1]
            seconds = attn_seconds if kind == ATTN else durations.of(kind)
            return engine.all_of(
                streams[rank].compute.submit(
                    partial(cluster.compute, rank, seconds),
                    after=after,
                    name=f"{_label(key)}@{rank}",
                )
                for rank in cluster.iter_ranks()
            )

        # Communication tasks: gate the comm streams on the chain
        # predecessor (a blocking no-op holds the FIFO head), then let
        # the real algorithm post its messages.
        def submit_comm(key: TaskKey, after: List[Event]) -> Event:
            (dep,) = after
            gate = partial(_wait, dep)
            for rank in cluster.iter_ranks():
                gpu = streams[rank]
                for stream in (gpu.comm, gpu.intra, gpu.inter):
                    stream.submit(gate, name=f"gate:{_label(key)}@{rank}")
            completions = self.a2a.schedule(cluster, streams, wire_chunk)
            return engine.all_of(completions)

        finish_times: Dict[TaskKey, float] = {}

        def record(key: TaskKey, _event: Event) -> None:
            finish_times[key] = engine.now

        # Enqueue in stream order.  Dependencies of later tasks refer
        # to earlier completions, so submission interleaves the two
        # queues: submit any stream head whose dependencies are already
        # submitted, preserving each stream's order (every scheduler's
        # output is causally orderable this way).
        queues = ((comp, submit_comp), (comm, submit_comm))
        heads = [0, 0]
        while heads[0] < len(comp) or heads[1] < len(comm):
            progressed = False
            for i, (queue, submit) in enumerate(queues):
                while heads[i] < len(queue):
                    key = queue[heads[i]]
                    needs = deps(key)
                    if any(need not in done for need in needs):
                        break
                    event = submit(key, [done[need] for need in needs])
                    event.add_callback(partial(record, key))
                    done[key] = event
                    heads[i] += 1
                    progressed = True
            if not progressed:
                raise RuntimeError(
                    "schedule is not causally ordered; cannot execute"
                )

        engine.run()
        return ExecutionReport(
            makespan=engine.now,
            task_finish=finish_times,
            traffic=cluster.stats,
        )


def _wait(event: Event):
    """Stream work holding the FIFO head until ``event`` fires."""
    if not event.fired:
        yield event


def _label(key: TaskKey) -> str:
    layer, kind, chunk = key
    return f"L{layer}:{kind if kind == ATTN else kind.name}^{chunk + 1}"
