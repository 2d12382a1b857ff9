"""Pipe-A2A: the paper's pipelined all-to-all (Section 5).

The insight: an all-to-all is a set of independent SR (send/recv)
pairs, some intra-node and some inter-node, and the two classes occupy
*different* interconnect resources (node fabric vs NIC).  NCCL-A2A
serializes all of a GPU's SR pairs on one stream, so while the NIC is
busy the fabric idles and vice versa.  Pipe-A2A posts each SR pair on
one of two asynchronous streams per GPU:

* **Intra-Stream** — SR(i, j) with i, j on the same node (including
  the self-copy SR(i, i));
* **Inter-Stream** — SR(i, j) across nodes.

The two streams execute concurrently, so the completion time drops
from ``t_intra + t_inter`` toward ``max(t_intra, t_inter)`` (paper
Eq. 16 vs Eq. 17), with the theoretical speedup bound of Eq. 18
implemented as :func:`theoretical_max_speedup`.

Each stream still progresses in lockstep rounds among its own class
(the sends/recvs pair up within the class; each rank posts one item per
stream, woken into every round by the class's last finisher of the
previous one), but the two classes are never ordered against each
other.
"""

from __future__ import annotations

from typing import List

from ..cluster.engine import Event
from ..cluster.streams import GpuStreams
from ..cluster.topology import ClusterSpec, SimCluster
from .base import AllToAll, register_a2a
from .ordering import lockstep_rounds, num_intra_rounds


@register_a2a
class PipeA2A(AllToAll):
    """Intra/inter-node pipelined pairwise exchange."""

    name = "pipe"

    def schedule(
        self,
        cluster: SimCluster,
        streams: List[GpuStreams],
        nbytes: float,
    ) -> List[Event]:
        spec = cluster.spec
        world = spec.world_size
        chunk = nbytes / world
        intra_rounds = num_intra_rounds(spec)
        intra = lockstep_rounds(
            cluster,
            lambda rank: streams[rank].intra,
            range(intra_rounds),
            chunk,
            "pipe:intra",
        )
        inter = lockstep_rounds(
            cluster,
            lambda rank: streams[rank].inter,
            range(intra_rounds, world),
            chunk,
            "pipe:inter",
        )
        return intra + inter


def phase_times(spec: ClusterSpec, nbytes: float) -> tuple:
    """(t_intra, t_inter): serialized per-node phase durations.

    Per node: ``M (M - 1)`` intra SR messages of ``S/P`` bytes cross
    the fabric (self-copies excluded — they are on-device) and
    ``M (P - M)`` chunks leave through the NIC.
    """
    world = spec.world_size
    gpn = spec.gpus_per_node
    chunk = nbytes / world
    intra_msgs = gpn * (gpn - 1)
    inter_msgs = gpn * (world - gpn)
    t_intra = intra_msgs * spec.intra_link.transfer_time(chunk)
    t_inter = inter_msgs * spec.inter_link.transfer_time(chunk)
    return t_intra, t_inter


def theoretical_max_speedup(spec: ClusterSpec, nbytes: float) -> float:
    """Paper Eq. 18: max speedup of Pipe-A2A over sequential NCCL-A2A.

    ``(t_intra + t_inter) / max(t_intra, t_inter)`` with the per-node
    serialized phase times; 1.0 means no possible gain (one resource
    completely dominates).
    """
    t_intra, t_inter = phase_times(spec, nbytes)
    bottleneck = max(t_intra, t_inter)
    if bottleneck <= 0:
        return 1.0
    return (t_intra + t_inter) / bottleneck
