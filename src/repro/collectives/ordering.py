"""Peer orderings shared by the pairwise exchange algorithms.

All pairwise all-to-all variants here visit peers in a *node-aligned*
order: first the GPU's own node (self-copy, then local peers in
rotated local-rank order), then remote nodes in rotated node order.
Because every rank uses the same rotation offsets, round ``t`` is
globally consistent — in each round the send/recv pairs form a perfect
matching and every rank is exchanging over the same class of link
(intra-node for the first ``M`` rounds, inter-node afterwards).

This mirrors how NCCL group-launched point-to-point operations
progress in lockstep rounds, and it is the execution model behind the
paper's Eq. 17 (NCCL-A2A time = intra phase + inter phase, strictly
sequential).
"""

from __future__ import annotations

import functools
from typing import Callable, Iterable, List

from ..cluster.engine import Event, ProcessGenerator
from ..cluster.streams import Stream
from ..cluster.topology import ClusterSpec, SimCluster


def node_aligned_peers(spec: ClusterSpec, rank: int) -> List[int]:
    """Peer sequence for ``rank``: own node first, then remote nodes.

    Round ``t`` of the returned sequence pairs rank ``(n, r)`` with:

    * ``t < M``: local peer ``(n, (r + t) mod M)`` — an intra-node
      exchange (``t = 0`` is the self-copy);
    * ``t >= M``: writing ``t - M = (d - 1) * M + s`` with node offset
      ``d >= 1``, the peer ``((n + d) mod N, (r + s) mod M)``.

    For every ``t`` the map rank -> peer is an involution-free perfect
    matching in the sense required for send/recv pairing: if ``a``
    sends to ``b`` in round ``t``, then ``b`` receives from ``a`` in a
    round with the same link class, so rounds are never mixed-class.
    """
    gpn = spec.gpus_per_node
    nodes = spec.num_nodes
    node = spec.node_of(rank)
    local = spec.local_rank(rank)
    peers: List[int] = []
    for t in range(gpn):
        peers.append(node * gpn + (local + t) % gpn)
    for d in range(1, nodes):
        peer_node = (node + d) % nodes
        for s in range(gpn):
            peers.append(peer_node * gpn + (local + s) % gpn)
    return peers


def num_intra_rounds(spec: ClusterSpec) -> int:
    """Rounds of :func:`node_aligned_peers` that are intra-node."""
    return spec.gpus_per_node


def lockstep_rounds(
    cluster: SimCluster,
    stream_of: Callable[[int], Stream],
    steps: Iterable[int],
    chunk: float,
    tag: str,
) -> List[Event]:
    """Post one ``chunk``-byte SR per rank per step, round by round.

    In round ``t`` every rank sends to its ``t``-th
    :func:`node_aligned_peers` entry on ``stream_of(rank)``.  Rounds
    are separated by one shared barrier event: all submissions of a
    round wait on a single ``all_of`` over the previous round, so one
    all-to-all queues ``O(P²)`` simulator events.  Returns the
    completion events of the last round.
    """
    peer_lists = [node_aligned_peers(cluster.spec, r) for r in cluster.iter_ranks()]
    prev_round: List[Event] = []
    for step in steps:
        after = [cluster.engine.all_of(prev_round)] if prev_round else []
        this_round: List[Event] = []
        for rank in cluster.iter_ranks():
            peer = peer_lists[rank][step]
            this_round.append(
                stream_of(rank).submit(
                    transfer_work(cluster, rank, peer, chunk),
                    after=after,
                    name=f"{tag}({rank}->{peer})",
                )
            )
        prev_round = this_round
    return prev_round


def transfer_work(
    cluster: SimCluster, src: int, dst: int, nbytes: float, bulk: bool = False
) -> Callable[[], ProcessGenerator]:
    """:meth:`Stream.submit` work for one transfer.

    Calling it returns the :meth:`SimCluster.transfer` generator itself,
    with no wrapping generator around it.
    """
    return functools.partial(cluster.transfer, src, dst, nbytes, bulk)
