"""All-to-all algorithm interface and measurement harness.

An algorithm schedules send/recv work onto per-GPU streams of a
:class:`~repro.cluster.topology.SimCluster`; the harness runs the event
loop and reports the makespan, per-GPU peak memory and traffic stats.

All algorithms move the same logical payload: each GPU holds an input
of ``nbytes`` and must deliver ``nbytes / P`` to every GPU (itself
included, as an on-device copy), matching the dispatch/combine tensors
of Section 2 of the paper.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Type

from ..cluster.engine import Engine, Event
from ..cluster.streams import GpuStreams, make_streams
from ..cluster.topology import ClusterSpec, SimCluster


class AllToAll(ABC):
    """Base class of all-to-all collective algorithms.

    Subclasses implement :meth:`schedule`, posting work onto the given
    streams and returning the completion events to wait on.  They must
    account staging memory through ``cluster.gpu(rank).allocate`` so
    that out-of-memory behaviour is simulated faithfully.
    """

    #: Registry key; subclasses must override.
    name: str = ""

    @abstractmethod
    def schedule(
        self,
        cluster: SimCluster,
        streams: List[GpuStreams],
        nbytes: float,
    ) -> List[Event]:
        """Post one all-to-all of ``nbytes`` per GPU; return completions."""

    def input_buffer_bytes(self, spec: ClusterSpec, nbytes: float) -> float:
        """Per-GPU buffer footprint of one collective call (in + out)."""
        return 2.0 * nbytes

    def workspace_bytes(self, spec: ClusterSpec, nbytes: float, rank: int) -> float:
        """Algorithm-specific staging footprint on ``rank`` (default none)."""
        return 0.0

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


_REGISTRY: Dict[str, Type[AllToAll]] = {}


def register_a2a(cls: Type[AllToAll]) -> Type[AllToAll]:
    """Class decorator adding an algorithm to the global registry."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must define a non-empty 'name'")
    if cls.name in _REGISTRY and _REGISTRY[cls.name] is not cls:
        raise ValueError(f"A2A algorithm {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls
    return cls


def get_a2a(name: str) -> AllToAll:
    """Instantiate a registered algorithm by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown A2A algorithm {name!r}; known: {known}")
    return cls()

def available_a2a() -> List[str]:
    """Names of all registered algorithms."""
    return sorted(_REGISTRY)


@dataclass
class A2AResult:
    """Outcome of one measured collective."""

    algorithm: str
    nbytes: float
    seconds: float
    peak_bytes_per_gpu: float
    oom: bool = False
    stats: Dict[str, float] = field(default_factory=dict)


def measure_a2a(
    algo: AllToAll,
    spec: ClusterSpec,
    nbytes: float,
    engine: Optional[Engine] = None,
    faults=None,
) -> A2AResult:
    """Run one collective on a fresh cluster and report its makespan.

    Out-of-memory during scheduling is reported as ``oom=True`` with
    ``seconds=inf`` rather than raising, so sweeps (Fig. 9) can record
    OOM points the way the paper plots them.

    ``faults`` is an optional :class:`~repro.faults.FaultPlan`: the
    collective then runs on a faulted cluster (straggler GPUs don't
    affect a pure communication benchmark, but link degradation and
    transient failures do).
    """
    from ..cluster.topology import SimulatedOOM

    cluster = SimCluster(spec, engine=engine, faults=faults)
    streams = make_streams(cluster.engine, spec.world_size)
    for rank in cluster.iter_ranks():
        gpu = cluster.gpu(rank)
        try:
            gpu.allocate(algo.input_buffer_bytes(spec, nbytes))
            ws = algo.workspace_bytes(spec, nbytes, rank)
            if ws:
                gpu.allocate(ws)
        except SimulatedOOM:
            return A2AResult(
                algorithm=algo.name,
                nbytes=nbytes,
                seconds=float("inf"),
                peak_bytes_per_gpu=gpu.peak_allocated_bytes,
                oom=True,
            )
    start = cluster.engine.now
    algo.schedule(cluster, streams, nbytes)
    cluster.engine.run()
    peak = max(g.peak_allocated_bytes for g in cluster.gpus)
    return A2AResult(
        algorithm=algo.name,
        nbytes=nbytes,
        seconds=cluster.engine.now - start,
        peak_bytes_per_gpu=peak,
        stats=cluster.stats,
    )
