"""1D-hierarchical all-to-all (HetuMoE's 1DH-A2A baseline).

One leader GPU per node (local rank 0) aggregates the node's entire
payload with bulk staged copies, leaders run an inter-node all-to-all
on the aggregated data, and results are scattered back to the node's
GPUs.  This cuts the number of inter-node messages from ``P^2`` to
``N^2`` — attractive when latency dominates — but:

* the three phases are strictly sequential, each ending in a
  host-visible synchronization (the gather/scatter staging is driven
  by the host), modeled as a fixed per-phase overhead;
* the leader must stage ``M x S`` gathered input plus ``M x S``
  exchanged output, so memory explodes at large tensors — the paper's
  Figure 9(c) shows 1DH-A2A running out of memory there;
* all of the node's traffic funnels through one GPU, so the
  bandwidth-bound performance trails every other algorithm (Figure 9).
"""

from __future__ import annotations

from typing import List

from ..cluster.engine import Event
from ..cluster.streams import GpuStreams
from ..cluster.topology import ClusterSpec, SimCluster
from .base import AllToAll, register_a2a
from .ordering import transfer_work

#: Host synchronization cost closing each of the three phases.
PHASE_SYNC_S = 400.0e-6


@register_a2a
class Hier1DA2A(AllToAll):
    """Leader-based gather / inter-node exchange / scatter."""

    name = "1dh"

    def workspace_bytes(self, spec: ClusterSpec, nbytes: float, rank: int) -> float:
        """Leaders stage the node's gathered input and exchanged output."""
        if spec.local_rank(rank) == 0:
            return 2.0 * spec.gpus_per_node * nbytes
        return 0.0

    def schedule(
        self,
        cluster: SimCluster,
        streams: List[GpuStreams],
        nbytes: float,
    ) -> List[Event]:
        spec = cluster.spec
        engine = cluster.engine
        num_nodes = spec.num_nodes
        gpn = spec.gpus_per_node

        # Phase 1: gather each node's payload at its leader (bulk copies).
        phase1: List[Event] = []
        for node in range(num_nodes):
            leader = spec.ranks_of_node(node)[0]
            for rank in spec.ranks_of_node(node):
                if rank == leader:
                    continue
                ev = streams[rank].comm.submit(
                    transfer_work(cluster, rank, leader, nbytes, bulk=True),
                    name=f"1dh:gather({rank}->{leader})",
                )
                phase1.append(ev)
        phase1 = [self._sync(engine, streams, phase1, "1dh:sync1")]

        # Phase 2: leaders exchange aggregated chunks.  The leader of
        # node n holds gpn * nbytes; the share destined to node n' is
        # gpn * nbytes / num_nodes.
        exchange_chunk = gpn * nbytes / num_nodes
        phase2: List[Event] = []
        for node in range(num_nodes):
            leader = spec.ranks_of_node(node)[0]
            for step in range(num_nodes):
                peer_node = (node + step) % num_nodes
                peer_leader = spec.ranks_of_node(peer_node)[0]
                ev = streams[leader].comm.submit(
                    transfer_work(cluster, leader, peer_leader, exchange_chunk),
                    after=phase1,
                    name=f"1dh:xchg({leader}->{peer_leader})",
                )
                phase2.append(ev)
        phase2 = [self._sync(engine, streams, phase2, "1dh:sync2")]

        # Phase 3: leaders scatter final shares back to local GPUs.
        completions: List[Event] = []
        for node in range(num_nodes):
            leader = spec.ranks_of_node(node)[0]
            for rank in spec.ranks_of_node(node):
                if rank == leader:
                    continue
                ev = streams[leader].comm.submit(
                    transfer_work(cluster, leader, rank, nbytes, bulk=True),
                    after=phase2,
                    name=f"1dh:scatter({leader}->{rank})",
                )
                completions.append(ev)
        return [self._sync(engine, streams, completions, "1dh:sync3")]

    @staticmethod
    def _sync(engine, streams, after: List[Event], name: str) -> Event:
        """Host synchronization: a fixed delay after all phase events."""

        def work():
            if after:
                yield engine.all_of(after)
            yield engine.timeout(PHASE_SYNC_S)

        return engine.process(work(), name=name)
