"""2D-hierarchical all-to-all (Tutel / DeepSpeed-MoE's 2DH-A2A).

Two strictly sequential phases:

1. **Intra-node alignment**: every GPU exchanges with its local peers
   so that the GPU at local rank ``r`` ends up holding all of the
   node's data destined for remote GPUs that also have local rank
   ``r``.  Each GPU ships ``S * (M-1)/M`` of its payload across the
   node fabric as fused bulk copies, preceded by a pack kernel
   (layout transform) on the compute engine.
2. **Inter-node exchange**: GPU ``(n, r)`` exchanges aggregated
   messages of ``S / N`` bytes with every GPU ``(n', r)``, followed by
   an unpack kernel.

Compared to NCCL's pairwise exchange this sends far fewer, larger
inter-node messages (good when latency dominates) at the price of
moving almost the entire payload across the intra-node fabric one
extra time and strictly serializing the two phases — which is why the
paper's Figure 9(c) shows 2DH-A2A losing to both NCCL-A2A and Pipe-A2A
by up to 2x once messages are bandwidth-bound.
"""

from __future__ import annotations

from typing import List

from ..cluster.engine import Event
from ..cluster.streams import GpuStreams
from ..cluster.topology import ClusterSpec, SimCluster
from .base import AllToAll, register_a2a
from .ordering import transfer_work


@register_a2a
class Hier2DA2A(AllToAll):
    """Tutel-style two-phase hierarchical exchange."""

    name = "2dh"

    def workspace_bytes(self, spec: ClusterSpec, nbytes: float, rank: int) -> float:
        """One staging buffer for the realigned phase-1 output."""
        return nbytes

    def schedule(
        self,
        cluster: SimCluster,
        streams: List[GpuStreams],
        nbytes: float,
    ) -> List[Event]:
        spec = cluster.spec
        num_nodes = spec.num_nodes
        gpn = spec.gpus_per_node
        world = spec.world_size

        # Per local peer, a GPU holds the data destined for the peer's
        # whole rank-group: one S/P chunk per node in the cluster.
        intra_msg = nbytes * num_nodes / world  # == nbytes / gpn
        inter_msg = nbytes / num_nodes

        # Pack kernels rearrange the payload by destination local-rank.
        packs: List[Event] = []
        for rank in cluster.iter_ranks():
            packs.append(
                streams[rank].compute.submit(
                    self._kernel(cluster, rank, 2.0 * nbytes),
                    name=f"2dh:pack({rank})",
                )
            )

        phase1: List[Event] = []
        for rank in cluster.iter_ranks():
            node = spec.node_of(rank)
            local = spec.local_rank(rank)
            for step in range(1, gpn):
                peer = node * gpn + (local + step) % gpn
                ev = streams[rank].comm.submit(
                    transfer_work(cluster, rank, peer, intra_msg, bulk=True),
                    after=packs,
                    name=f"2dh:intra({rank}->{peer})",
                )
                phase1.append(ev)

        completions: List[Event] = []
        for rank in cluster.iter_ranks():
            node = spec.node_of(rank)
            local = spec.local_rank(rank)
            last: Event | None = None
            for step in range(1, num_nodes):
                peer_node = (node + step) % num_nodes
                peer = spec.ranks_of_node(peer_node)[local]
                last = streams[rank].comm.submit(
                    transfer_work(cluster, rank, peer, inter_msg),
                    after=phase1,
                    name=f"2dh:inter({rank}->{peer})",
                )
            # Unpack kernel restoring the expected output layout.
            unpack = streams[rank].compute.submit(
                self._kernel(cluster, rank, 2.0 * nbytes),
                after=[last] if last is not None else phase1,
                name=f"2dh:unpack({rank})",
            )
            completions.append(unpack)
        return completions

    @staticmethod
    def _kernel(cluster: SimCluster, rank: int, touched_bytes: float):
        seconds = cluster.spec.gpu.memory_time(touched_bytes)

        def work():
            yield from cluster.compute(rank, seconds)

        return work
