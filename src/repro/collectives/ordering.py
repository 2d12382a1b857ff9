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

:func:`lockstep_rounds` runs such rounds with one stream item per rank
and a per-round countdown instead of a barrier event, so an all-to-all
queues about ``4·P²`` simulator entries.  :func:`transfer_work` is the
one-transfer stream item the hierarchical algorithms submit.
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
    :func:`node_aligned_peers` entry.  Each rank submits one item on
    ``stream_of(rank)`` that runs all its rounds: before round ``t``
    (but the first) it waits on its own wake event.  A per-round
    countdown tracks the ranks still in round ``t - 1``; the last one
    to finish does not run on into round ``t`` but queues one callback
    that fires round ``t``'s wake events in rank order.  Ranks
    therefore start each round in rank order, never in arrival order,
    which keeps the global order of transfer attempts (transient-fault
    verdicts hash it).  One all-to-all queues about ``4·P²`` simulator
    entries and one process per rank.  Returns the completion events
    of the ranks' items.
    """
    engine = cluster.engine
    steps = list(steps)
    ranks = list(cluster.iter_ranks())
    # wake[i][rank] releases ``rank`` into round ``steps[i + 1]``.
    names = [f"{tag}:wake{step}" for step in steps[1:]]
    wake = [[engine.event(name) for _ in ranks] for name in names]
    in_round = [len(ranks)] * len(wake)

    def rounds(rank: int) -> ProcessGenerator:
        peers = node_aligned_peers(cluster.spec, rank)
        for i, step in enumerate(steps):
            if i:
                yield wake[i - 1][rank]
            yield from cluster.transfer(rank, peers[step], chunk)
            if i < len(wake):
                in_round[i] -= 1
                if not in_round[i]:
                    engine._schedule_callback(_wake_all, wake[i])

    return [
        stream_of(rank).submit(functools.partial(rounds, rank), name=f"{tag}@{rank}")
        for rank in ranks
    ]


def _wake_all(events: List[Event]) -> None:
    """Queued callback firing one round's wake events in rank order."""
    for ev in events:
        ev.succeed()


def transfer_work(
    cluster: SimCluster, src: int, dst: int, nbytes: float, bulk: bool = False
) -> Callable[[], ProcessGenerator]:
    """:meth:`Stream.submit` work for one transfer.

    Calling it returns the :meth:`SimCluster.transfer` generator itself,
    with no wrapping generator around it.
    """
    return functools.partial(cluster.transfer, src, dst, nbytes, bulk)
