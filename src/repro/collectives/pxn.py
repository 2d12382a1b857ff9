"""PXN-style aggregated, pipelined all-to-all.

NCCL 2.12's "PxN" rail optimization (the NVIDIA blog post cited as
[1] in the paper) aggregates messages intra-node before they leave
through the NIC, like 2DH-A2A — but unlike 2DH it does not barrier
between the phases: as soon as a rail's aggregation block is ready it
departs, so intra-node aggregation overlaps inter-node transfers the
way Pipe-A2A overlaps its SR classes.

Included as a demonstration that the AbsAlltoAll extension point
admits genuinely new algorithm structure (aggregation + pipelining),
and as a what-if: on the paper's testbed it beats 2DH-A2A (hides the
intra phase) but still trails Pipe-A2A, whose pairwise intra messages
move 8x less fabric volume.
"""

from __future__ import annotations

from typing import List

from ..cluster.engine import Event
from ..cluster.streams import GpuStreams
from ..cluster.topology import ClusterSpec, SimCluster
from .base import AllToAll, register_a2a
from .ordering import transfer_work


@register_a2a
class PxnA2A(AllToAll):
    """Rail-aligned aggregation pipelined with inter-node sends."""

    name = "pxn"

    def workspace_bytes(self, spec: ClusterSpec, nbytes: float, rank: int) -> float:
        """One aggregation staging buffer per GPU."""
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

        # Intra: each GPU forwards, per remote node d, the data headed
        # to that node via the local "rail owner" (the GPU whose local
        # rank is d % gpn) — one bulk message of S/N per remote node.
        intra_msg = nbytes / num_nodes
        # Inter: the rail owner ships the node's aggregated block for
        # node d: gpn * S / N bytes, chunked per source for pipelining.
        inter_msg = gpn * nbytes / num_nodes

        completions: List[Event] = []
        for rank in cluster.iter_ranks():
            node = spec.node_of(rank)
            local = spec.local_rank(rank)
            for step in range(1, num_nodes):
                peer_node = (node + step) % num_nodes
                rail = peer_node % gpn
                rail_rank = node * gpn + rail
                # Aggregation hop (skipped when this GPU is the rail).
                if rail != local:
                    agg = streams[rank].intra.submit(
                        transfer_work(cluster, rank, rail_rank, intra_msg, bulk=True),
                        name=f"pxn:agg({rank}->{rail_rank})",
                    )
                    deps = [agg]
                else:
                    deps = []
                # The rail owner's inter-node send of this GPU's share;
                # posted on the rail's inter stream, gated only on the
                # aggregation hop — no phase barrier.
                peer = spec.ranks_of_node(peer_node)[rail]
                ev = streams[rail_rank].inter.submit(
                    transfer_work(cluster, rail_rank, peer, inter_msg / gpn),
                    after=deps,
                    name=f"pxn:inter({rail_rank}->{peer})",
                )
                completions.append(ev)
            # Local deliveries (own node) stay pairwise on the intra
            # stream, as in Pipe-A2A.
            for step in range(gpn):
                peer = node * gpn + (local + step) % gpn
                ev = streams[rank].intra.submit(
                    transfer_work(cluster, rank, peer, nbytes / spec.world_size),
                    name=f"pxn:local({rank}->{peer})",
                )
                completions.append(ev)
        return completions
