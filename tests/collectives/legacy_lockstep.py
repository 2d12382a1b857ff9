"""The per-submission fan-in lockstep schedules, kept as a test reference.

Production NCCL-A2A and Pipe-A2A post one stream item per rank that
runs all its rounds; the last rank to finish round ``t - 1`` queues one
callback that wakes every rank into round ``t`` in rank order
(``ordering.lockstep_rounds``).  Here instead every transfer is its
own submission, and each of the ``P`` submissions of round ``t``
builds its own ``all_of`` over all ``P`` events of round ``t - 1``
(``P²`` callbacks per round, ``≈P³`` per all-to-all).  The parity
suite checks that both forms simulate bit-identical results.
"""

from typing import List

from repro.cluster.engine import Event
from repro.cluster.streams import GpuStreams
from repro.cluster.topology import SimCluster
from repro.collectives.nccl_a2a import NcclA2A
from repro.collectives.ordering import node_aligned_peers, num_intra_rounds
from repro.collectives.pipe_a2a import PipeA2A


def _xfer(cluster: SimCluster, src: int, dst: int, chunk: float):
    def work():
        yield from cluster.transfer(src, dst, chunk)

    return work


class LegacyNcclA2A(NcclA2A):
    """``NcclA2A`` with each submission fanning in on the whole previous round."""

    def schedule(
        self,
        cluster: SimCluster,
        streams: List[GpuStreams],
        nbytes: float,
    ) -> List[Event]:
        world = cluster.world_size
        chunk = nbytes / world
        peer_lists = [node_aligned_peers(cluster.spec, r) for r in cluster.iter_ranks()]
        prev_round: List[Event] = []
        for step in range(world):
            this_round: List[Event] = []
            for rank in cluster.iter_ranks():
                peer = peer_lists[rank][step]
                ev = streams[rank].comm.submit(
                    _xfer(cluster, rank, peer, chunk),
                    after=prev_round,
                    name=f"nccl:sr({rank}->{peer})",
                )
                this_round.append(ev)
            prev_round = this_round
        return prev_round


class LegacyPipeA2A(PipeA2A):
    """``PipeA2A`` with each submission fanning in on the whole previous round."""

    def schedule(
        self,
        cluster: SimCluster,
        streams: List[GpuStreams],
        nbytes: float,
    ) -> List[Event]:
        spec = cluster.spec
        world = spec.world_size
        chunk = nbytes / world
        peer_lists = [node_aligned_peers(spec, r) for r in cluster.iter_ranks()]
        intra_rounds = num_intra_rounds(spec)
        completions: List[Event] = []

        prev_round: List[Event] = []
        for step in range(intra_rounds):
            this_round: List[Event] = []
            for rank in cluster.iter_ranks():
                peer = peer_lists[rank][step]
                ev = streams[rank].intra.submit(
                    _xfer(cluster, rank, peer, chunk),
                    after=prev_round,
                    name=f"pipe:intra({rank}->{peer})",
                )
                this_round.append(ev)
            prev_round = this_round
        completions.extend(prev_round)

        prev_round = []
        for step in range(intra_rounds, world):
            this_round = []
            for rank in cluster.iter_ranks():
                peer = peer_lists[rank][step]
                ev = streams[rank].inter.submit(
                    _xfer(cluster, rank, peer, chunk),
                    after=prev_round,
                    name=f"pipe:inter({rank}->{peer})",
                )
                this_round.append(ev)
            prev_round = this_round
        completions.extend(prev_round)
        return completions


LEGACY = {"nccl": LegacyNcclA2A, "pipe": LegacyPipeA2A}
