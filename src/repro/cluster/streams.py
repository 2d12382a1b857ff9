"""CUDA-stream semantics for the simulator.

A :class:`Stream` executes submitted work items strictly in submission
order (FIFO), like a CUDA stream: a later item does not start before
all earlier items on the same stream have finished, even if its own
dependencies are already satisfied.  Work on *different* streams runs
concurrently, subject only to the shared resources it acquires.

This is exactly the execution model the paper's scheduling theory
assumes: the scheduler's output is an *enqueue order* per stream, and
the makespan follows from FIFO-per-stream plus cross-stream data
dependencies — which is why task *ordering* matters at all.

Pipe-A2A (paper Section 5) uses two communication streams per GPU, an
Intra-Stream and an Inter-Stream, so intra-node and inter-node
send/recv operations proceed concurrently.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from .engine import Engine, Event, ProcessGenerator


class Stream:
    """A FIFO execution queue on a simulation engine."""

    def __init__(self, engine: Engine, name: str = "stream"):
        self.engine = engine
        self.name = name
        self._tail: Optional[Event] = None
        self._submitted = 0

    def submit(
        self,
        work: Callable[[], ProcessGenerator],
        after: Iterable[Event] = (),
        name: str = "",
    ) -> Event:
        """Enqueue ``work`` behind everything already on this stream.

        ``work`` is a zero-argument callable returning a fresh process
        generator; it is instantiated only when the stream reaches it.
        ``after`` adds cross-stream dependencies: the item additionally
        waits for those events before starting (but it still blocks
        everything submitted later on this stream while it waits —
        FIFO, as on hardware).

        Returns the completion event of the submitted item.
        """
        deps: List[Event] = list(after)
        if self._tail is not None:
            deps.append(self._tail)
        self._submitted += 1
        label = name or f"{self.name}#{self._submitted}"
        proc = self.engine.process(self._run(deps, work), name=label)
        self._tail = proc
        return proc

    def _run(
        self, deps: List[Event], work: Callable[[], ProcessGenerator]
    ) -> ProcessGenerator:
        if deps:
            yield self.engine.all_of(deps)
        result = yield from work()
        return result

    def barrier(self) -> Event:
        """An event firing when everything submitted so far is done."""
        if self._tail is None:
            ev = self.engine.event(f"{self.name}:barrier")
            ev.succeed()
            return ev
        return self._tail


class GpuStreams:
    """The per-GPU stream set used by ScheMoE.

    ``compute`` carries kernels (experts, codecs); ``comm`` is the
    default communication stream (NCCL-style single stream); ``intra``
    and ``inter`` are Pipe-A2A's two concurrent communication streams.
    """

    def __init__(self, engine: Engine, rank: int):
        self.rank = rank
        self.compute = Stream(engine, name=f"gpu{rank}:compute")
        self.comm = Stream(engine, name=f"gpu{rank}:comm")
        self.intra = Stream(engine, name=f"gpu{rank}:intra")
        self.inter = Stream(engine, name=f"gpu{rank}:inter")


def make_streams(engine: Engine, world_size: int) -> List[GpuStreams]:
    """Create one :class:`GpuStreams` per rank."""
    if world_size < 1:
        raise ValueError(f"world_size must be >= 1, got {world_size}")
    return [GpuStreams(engine, rank) for rank in range(world_size)]
