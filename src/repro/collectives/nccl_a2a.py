"""NCCL-style pairwise all-to-all (the paper's NCCL-A2A baseline).

NCCL implements all-to-all as P grouped point-to-point send/recv pairs
per GPU, progressing in lockstep rounds on a *single* communication
stream.  With the node-aligned peer order all intra-node rounds run
first and all inter-node rounds after, so the fabric idles while the
NIC works and vice versa — the total is ``t_intra + t_inter`` exactly
as in the paper's Eq. 17, which is the inefficiency Pipe-A2A removes.

Rounds are separated by a barrier (NCCL grouped P2P kernels are
bulk-synchronous across the communicator), keeping the simulation
faithful to lockstep progress even when resource contention would let
one rank run ahead.  Each rank posts one stream item that runs all its
rounds; the last rank to finish a round wakes every rank into the next
one in rank order (:func:`~.ordering.lockstep_rounds`), so an
all-to-all queues about ``4·P²`` simulator entries.
"""

from __future__ import annotations

from typing import List

from ..cluster.engine import Event
from ..cluster.streams import GpuStreams
from ..cluster.topology import SimCluster
from .base import AllToAll, register_a2a
from .ordering import lockstep_rounds


@register_a2a
class NcclA2A(AllToAll):
    """Lockstep pairwise exchange on one comm stream per GPU."""

    name = "nccl"

    def schedule(
        self,
        cluster: SimCluster,
        streams: List[GpuStreams],
        nbytes: float,
    ) -> List[Event]:
        return lockstep_rounds(
            cluster,
            lambda rank: streams[rank].comm,
            range(cluster.world_size),
            nbytes / cluster.world_size,
            "nccl:sr",
        )
