"""Cluster topology: nodes, GPUs, links, and the simulation runtime.

The topology mirrors the paper's testbed shape: ``N`` nodes, each with
``M`` GPUs behind a shared intra-node fabric (PCIe switch / host
staging) and one NIC to the inter-node network.

Resource model
--------------
* Each GPU owns a **compute** resource: one kernel at a time (expert
  GEMMs, compression kernels).
* Each node owns an **intra-node fabric** resource: all GPU-to-GPU
  transfers inside the node serialize on it (aggregate-bandwidth
  model; the 2080 Ti has no GPUDirect P2P, so every intra transfer is
  staged through host memory and contends on the same root complex).
* Each node owns a **NIC-send** resource: all egress inter-node
  transfers of the node serialize on it.  The receive direction is not
  modeled separately; the NIC is full duplex and all workloads in the
  paper (all-to-all and allreduce) are volume-symmetric, so egress
  serialization alone captures the bottleneck.

Memory accounting
-----------------
GPUs track allocated bytes so that algorithms with pathological
staging footprints (1DH-A2A's leader buffers, FasterMoE's imbalanced
token buffers) run out of memory in the simulator exactly where the
paper observed OOM.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

from .costmodel import GpuModel, LinkModel
from .engine import Engine, ProcessGenerator, Resource

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..faults import FaultPlan


class SimulatedOOM(RuntimeError):
    """Raised when a simulated GPU allocation exceeds device memory."""


@dataclass(frozen=True)
class ClusterSpec:
    """Static description of a cluster.

    ``intra_link.bandwidth_bps`` is the *aggregate* effective bandwidth
    of one node's internal fabric for fine-grained pairwise send/recv
    (NCCL P2P protocol staged through shared host memory — slow on
    GPUs without GPUDirect P2P such as the 2080 Ti);
    ``intra_bulk_link`` is the same fabric driven by fused bulk staged
    copies (large contiguous ``cudaMemcpy`` DMA), which sustain much
    higher utilization and are what hierarchical algorithms use for
    their aggregated intra-node phases.  ``inter_link.bandwidth_bps``
    is the effective egress bandwidth of one NIC.
    """

    name: str
    num_nodes: int
    gpus_per_node: int
    gpu: GpuModel
    intra_link: LinkModel
    inter_link: LinkModel
    intra_bulk_link: Optional[LinkModel] = None

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.gpus_per_node < 1:
            raise ValueError(
                f"gpus_per_node must be >= 1, got {self.gpus_per_node}"
            )
        if self.intra_bulk_link is None:
            object.__setattr__(self, "intra_bulk_link", self.intra_link)

    @property
    def world_size(self) -> int:
        """Total number of GPUs, P = N x M."""
        return self.num_nodes * self.gpus_per_node

    def node_of(self, rank: int) -> int:
        """Node index hosting global GPU ``rank``."""
        self._check_rank(rank)
        return rank // self.gpus_per_node

    def local_rank(self, rank: int) -> int:
        """Index of GPU ``rank`` inside its node."""
        self._check_rank(rank)
        return rank % self.gpus_per_node

    def same_node(self, rank_a: int, rank_b: int) -> bool:
        """Whether two global ranks share a node."""
        return self.node_of(rank_a) == self.node_of(rank_b)

    def ranks_of_node(self, node: int) -> List[int]:
        """Global ranks of all GPUs in ``node``."""
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range [0, {self.num_nodes})")
        base = node * self.gpus_per_node
        return list(range(base, base + self.gpus_per_node))

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {rank} out of range [0, {self.world_size})")


@dataclass
class GpuRuntime:
    """Per-GPU simulation state."""

    rank: int
    node: int
    local_rank: int
    model: GpuModel
    compute: Resource
    allocated_bytes: float = 0.0
    peak_allocated_bytes: float = 0.0

    def allocate(self, nbytes: float) -> None:
        """Reserve simulated device memory; raise on exhaustion.

        ``inf`` is a valid size (it reports OOM); NaN and negative
        sizes are rejected.
        """
        if not nbytes >= 0:
            raise ValueError(f"invalid allocation size: {nbytes}")
        self.allocated_bytes += nbytes
        self.peak_allocated_bytes = max(
            self.peak_allocated_bytes, self.allocated_bytes
        )
        if self.allocated_bytes > self.model.memory_bytes:
            raise SimulatedOOM(
                f"GPU {self.rank}: allocation of {nbytes:.3e} B exceeds "
                f"{self.model.memory_bytes:.3e} B device memory "
                f"(in use: {self.allocated_bytes - nbytes:.3e} B)"
            )

    def free(self, nbytes: float) -> None:
        """Release simulated device memory."""
        if not nbytes >= 0:
            raise ValueError(f"invalid free size: {nbytes}")
        self.allocated_bytes = max(0.0, self.allocated_bytes - nbytes)


@dataclass
class NodeRuntime:
    """Per-node simulation state: shared fabric and NIC resources."""

    index: int
    fabric: Resource
    nic_send: Resource
    gpus: List[GpuRuntime] = field(default_factory=list)


class SimCluster:
    """A cluster instantiated on a simulation :class:`Engine`.

    Provides the transfer primitives collectives are written against:
    :meth:`transfer` yields a process generator that occupies the right
    resource (fabric or NIC) for the alpha-beta duration of the message.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        engine: Engine | None = None,
        faults: "FaultPlan | None" = None,
    ):
        self.spec = spec
        self.engine = engine if engine is not None else Engine()
        # Cached for :meth:`transfer`'s rank check and rank -> node map.
        self._world_size = spec.world_size
        self._gpus_per_node = spec.gpus_per_node
        # Fault injection is strictly opt-in: with no plan (or an empty
        # one) the injector stays ``None`` and every primitive takes
        # exactly the historical code path — bit-identical simulations.
        self._injector = None
        if faults is not None and not faults.is_empty():
            from ..faults import FaultInjector

            self._injector = FaultInjector(
                faults, spec.world_size, spec.num_nodes
            )
        self.nodes: List[NodeRuntime] = []
        self.gpus: List[GpuRuntime] = []
        for n in range(spec.num_nodes):
            node = NodeRuntime(
                index=n,
                fabric=Resource(self.engine, name=f"fabric[{n}]"),
                nic_send=Resource(self.engine, name=f"nic[{n}]"),
            )
            for m in range(spec.gpus_per_node):
                rank = n * spec.gpus_per_node + m
                gpu = GpuRuntime(
                    rank=rank,
                    node=n,
                    local_rank=m,
                    model=spec.gpu,
                    compute=Resource(self.engine, name=f"compute[{rank}]"),
                )
                node.gpus.append(gpu)
                self.gpus.append(gpu)
            self.nodes.append(node)
        self._stats: Dict[str, float] = {
            "intra_bytes": 0.0,
            "inter_bytes": 0.0,
            "intra_messages": 0.0,
            "inter_messages": 0.0,
        }
        if self._injector is not None:
            # Only faulted clusters report failure counters, so the
            # healthy stats dict (serialized into benchmark sidecars)
            # is unchanged by the existence of the fault layer.
            self._stats["transient_failures"] = 0.0
            self._stats["transient_retries"] = 0.0

    # -- accessors ------------------------------------------------------
    @property
    def world_size(self) -> int:
        """Total number of GPUs."""
        return self.spec.world_size

    def gpu(self, rank: int) -> GpuRuntime:
        """Runtime state of global GPU ``rank``."""
        self.spec._check_rank(rank)
        return self.gpus[rank]

    def node(self, index: int) -> NodeRuntime:
        """Runtime state of node ``index``."""
        return self.nodes[index]

    def iter_ranks(self) -> Iterator[int]:
        """All global GPU ranks."""
        return iter(range(self.world_size))

    @property
    def stats(self) -> Dict[str, float]:
        """Cumulative traffic statistics of this cluster instance."""
        return dict(self._stats)

    # -- primitives -----------------------------------------------------
    def transfer(
        self, src: int, dst: int, nbytes: float, bulk: bool = False
    ) -> ProcessGenerator:
        """Process generator moving ``nbytes`` from GPU src to GPU dst.

        Intra-node messages occupy the source node's fabric; inter-node
        messages occupy the source node's NIC.  ``bulk=True`` selects
        the fused bulk-copy path for intra-node messages (hierarchical
        algorithms' aggregated transfers), which sustains higher fabric
        utilization than pairwise send/recv.  A self-transfer is an
        on-device copy costed by the GPU memory system with no shared
        resource held (and never faulted — it does not cross a link).

        Under an active fault plan the transfer is priced against any
        link faults covering its time window (piecewise, so degradation
        windows that open or close mid-transfer price exactly the bytes
        they cover), and transient faults can fail an attempt *after*
        it occupied the link — the sender then backs off exponentially
        in simulated time, releasing the link during the backoff, and
        retries until the plan's retry budget is exhausted
        (:class:`~repro.faults.FaultError`).
        """
        if nbytes < 0:
            raise ValueError(f"negative message size: {nbytes}")
        world = self._world_size
        if not (0 <= src < world and 0 <= dst < world):
            bad = dst if 0 <= src < world else src
            raise ValueError(f"rank {bad} out of range [0, {world})")
        if src == dst:
            yield self.engine.timeout(self.spec.gpu.memory_time(2.0 * nbytes))
            return
        src_node = src // self._gpus_per_node
        if src_node == dst // self._gpus_per_node:
            self._stats["intra_bytes"] += nbytes
            self._stats["intra_messages"] += 1
            resource = self.nodes[src_node].fabric
            link = self.spec.intra_bulk_link if bulk else self.spec.intra_link
            kind = "fabric"
        else:
            self._stats["inter_bytes"] += nbytes
            self._stats["inter_messages"] += 1
            resource = self.nodes[src_node].nic_send
            link = self.spec.inter_link
            kind = "nic"
        if self._injector is None:
            duration = link.transfer_time(nbytes)
            yield resource.request()
            try:
                yield self.engine.timeout(duration)
            finally:
                resource.release()
            return
        yield from self._faulted_transfer(
            kind, src_node, resource, link, nbytes
        )

    def _faulted_transfer(
        self,
        kind: str,
        src_node: int,
        resource: Resource,
        link: LinkModel,
        nbytes: float,
    ) -> ProcessGenerator:
        """Transfer under an active fault plan: degraded timing plus the
        transient-failure retry/backoff loop."""
        from ..faults import FaultError

        injector = self._injector
        attempt = 0
        while True:
            with (yield from resource.acquire()):
                start = self.engine.now
                failed = injector.transfer_attempt_fails()
                finish = injector.transfer_finish(
                    kind, src_node, start, nbytes, link
                )
                # A failed attempt still occupied the link for its full
                # duration — the bytes moved, then the checksum said no.
                yield self.engine.timeout(finish - start)
            if not failed:
                return
            self._stats["transient_failures"] += 1
            transient = injector.plan.transient
            if attempt >= transient.max_retries:
                raise FaultError(
                    f"transfer of {nbytes:.0f} B over {kind}[{src_node}] "
                    f"failed {attempt + 1} attempt(s); retry budget "
                    f"({transient.max_retries}) exhausted at "
                    f"t={self.engine.now:.6g}s"
                )
            self._stats["transient_retries"] += 1
            yield self.engine.timeout(transient.backoff_delay(attempt))
            attempt += 1

    def compute(self, rank: int, seconds: float) -> ProcessGenerator:
        """Process generator occupying GPU ``rank``'s compute engine.

        ``seconds`` is the *healthy* kernel duration; a straggler fault
        on ``rank`` stretches it by the fault's slowdown.
        """
        if seconds < 0:
            raise ValueError(f"negative compute duration: {seconds}")
        gpu = self.gpu(rank)
        with (yield from gpu.compute.acquire()):
            if self._injector is None:
                yield self.engine.timeout(seconds)
            else:
                start = self.engine.now
                finish = self._injector.compute_finish(rank, start, seconds)
                yield self.engine.timeout(finish - start)
