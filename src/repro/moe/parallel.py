"""Literal expert-parallel execution over P logical workers.

This module executes the MoE layer the way the distributed system
does (paper Fig. 2): every worker holds its own mini-batch shard and a
subset of experts; dispatch produces per-destination send buffers; an
explicit all-to-all exchanges them; each worker runs its local experts
on what it received; a second all-to-all returns results; combine
merges them.  No simulation shortcuts — real numpy buffers move
between per-rank data structures.

Its purpose is to *prove the substitution*: the single-process
:class:`~repro.moe.layer.MoELayer` used for the convergence study is
numerically identical to this synchronized multi-worker execution
(`tests/moe/test_parallel_equivalence.py`), so training results
obtained single-process are exactly what the 32-GPU system would
produce.

Since the pipelined rewrite the sparse hot path is *chunked* (paper
Section 4): each worker's shard splits into ``num_chunks`` contiguous
token ranges, and every chunk runs the seven-task chain
C1 A1 D1 E C2 A2 D2 of :mod:`repro.core.tasks` with real work, split
as the paper splits it (Section 3.1): the tasks only hand payloads to
the all-to-all.

* The transport (:class:`_Transport`, one per direction) moves bytes.
  It owns the codec on the wire (encode in C1/C2, decode in D1/D2),
  the per-chunk outbox and inbox, A1/A2's memcpy of each payload into
  a fresh staging copy, the ``(P, P)`` traffic matrix and the
  wire-time wait.
* The forward's routing decides what the bytes are: C1 picks each
  destination's rows (sorted by expert, with segment counts), D1
  assembles one expert-major block per destination, E runs
  :meth:`~repro.moe.experts.Experts.run_grouped`, C2 splits results
  back per source in payload row order, and D2 merges them, weighted,
  into the owner's output rows in the plan's expert-major order — the
  order in which the single-process ``combine_grouped`` adds up a
  token's contributions, so the two agree bit for bit at any top-k.

The codec runs where the paper's task model (:mod:`repro.core.tasks`)
puts it: compression and decompression are computing tasks, and the
all-to-alls move only the encoded bytes.  Without a codec (or with one
at 32 bits per value) the payloads are the fp32 rows themselves.

``pipeline="sync"`` executes the chain chunk-major on the calling
thread; ``pipeline="overlap"`` drives the identical task callables
through :class:`~repro.core.runtime.StreamExecutor` — two real FIFO
streams ordered by a registered scheduling policy (OptSche by
default), so chunk i's GEMMs overlap chunk i+1's staging and wire
time.  Both modes run the same per-task work on disjoint state, and
chunks own disjoint token ranges, so outputs are bit-identical across
modes and across ``num_chunks`` (the per-token combine accumulation order is
preserved exactly; only a lossy codec, whose quantization granularity
is per payload, makes chunking visible — to codec-sized error).

The forward records no autograd tape: it returns numpy arrays, so
nothing could backprop through it, and the gate and every task run
under :func:`~repro.nn.tensor.inference_mode` (no masks, closures or
aux loss, bit-identical outputs).  Every returned array is a fresh
allocation the caller owns.  A future expert-parallel backward must
save the per-chunk E inputs it needs explicitly, not lean on an
incidental tape, and runs its tasks over the same transport in the
other direction.

The group's reference is the single-process layer applied to each
worker's shard with the same dead experts — exact, not an
approximation, because each worker gates only its own shard and the
expert FFNs work row by row.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

import numpy as np

from ..compression.base import CompressedTensor, Compressor
from ..core.runtime import (
    StreamExecutor,
    chunk_bounds,
    run_inline,
    validate_pipeline,
)
from ..core.scheduler import Scheduler
from ..core.tasks import Task, TaskKind
from ..nn.fused import _weighted_parts
from ..nn.tensor import Tensor, _scatter_add_parts, inference_mode
from .experts import Experts
from .layer import MoELayer
from .placement import ExpertPlacement, checked_ids


#: One (src, dst) all-to-all payload as it crosses the wire: the
#: codec's encoding, or the fp32 rows themselves without a codec.
Payload = Union[np.ndarray, CompressedTensor]


@dataclass
class A2ATraffic:
    """Byte accounting of one exchange, per (src, dst) worker pair.

    Counts the bytes that cross the wire: each payload's encoded
    :attr:`~repro.compression.base.CompressedTensor.nbytes` under a
    codec, its fp32 rows without one.
    """

    matrix: np.ndarray  # (P, P) bytes sent from src to dst

    @property
    def total_bytes(self) -> float:
        """All bytes exchanged, self-deliveries included."""
        return float(self.matrix.sum())

    @property
    def off_diagonal_bytes(self) -> float:
        """Bytes that actually cross worker boundaries."""
        return float(self.matrix.sum() - np.trace(self.matrix))


class _Transport:
    """One direction of the chunked all-to-all, as the tasks see it.

    The forward builds one per direction (dispatch, combine) and only
    hands it payloads: :meth:`post` is C1/C2's encode half,
    :meth:`send` the whole of A1/A2 and :meth:`received` D1/D2's
    decode half.  ``meta`` is routing data the receiver needs; it
    travels with its payload untouched and uncounted.

    Each chunk's outbox entry is written by one task and popped by its
    chain successor (likewise each ``(chunk, dst)`` inbox entry), so
    the overlap executor's two streams never race on them.
    """

    def __init__(
        self,
        codec: Optional[Compressor],
        num_workers: int,
        link_bandwidth: Optional[float],
    ):
        # The codec on the wire; None ships the fp32 rows themselves.
        if codec is not None and codec.bits_per_value >= 32:
            codec = None
        self._codec = codec
        self._link_bandwidth = link_bandwidth
        #: (P, P) bytes staged from src to dst: each payload's encoded
        #: ``nbytes`` under a codec, its fp32 rows without one.
        self.traffic = np.zeros((num_workers, num_workers))
        self._outbox: Dict[int, list] = {}
        self._inbox: Dict[tuple, list] = {}

    def post(self, c: int, src: int, dst: int, rows: np.ndarray, meta) -> None:
        """C1/C2: encode ``rows`` for chunk ``c``'s ``src -> dst`` send."""
        payload = rows if self._codec is None else self._codec.encode(rows)
        self._outbox.setdefault(c, []).append((src, dst, payload, meta))

    def send(self, c: int) -> None:
        """A1/A2: stage chunk ``c``'s payloads and hold the link for them.

        Staging is a memcpy of each payload; the link is held for
        the cross-worker bytes by a GIL-released wait, not CPU work
        (the group's ``link_bandwidth`` model).
        """
        wire_bytes = 0
        for src, dst, payload, meta in self._outbox.pop(c, ()):
            staged = self._stage(payload)
            self.traffic[src, dst] += staged.nbytes
            if src != dst:
                wire_bytes += staged.nbytes
            self._inbox.setdefault((c, dst), []).append((src, staged, meta))
        if self._link_bandwidth and wire_bytes:
            time.sleep(wire_bytes / self._link_bandwidth)

    def received(self, c: int, dst: int) -> list:
        """D1/D2: ``(src, meta, rows)`` sent to ``dst`` in chunk ``c``.

        A list in post order, before anything is decoded, so a task
        can lay out its result from the metas first; ``rows()`` decodes
        that payload to fp32 rows.
        """
        codec = self._codec
        decode = (lambda rows: rows) if codec is None else codec.decompress
        return [
            (src, meta, functools.partial(decode, staged))
            for src, staged, meta in self._inbox.pop((c, dst), [])
        ]

    def _stage(self, payload: Payload) -> Payload:
        if self._codec is None:
            return payload.copy()
        return dataclasses.replace(
            payload, payload={k: v.copy() for k, v in payload.payload.items()}
        )


def _assemble_expert_major(counts: np.ndarray, payloads, width: int):
    """D1's assembly: one expert-major block from per-source payloads.

    ``counts[s]`` are source s's segment counts over the receiver's
    hosted experts (its payload's rows run expert by expert in that
    order), and ``payloads[s]()`` decodes its rows.  The block is the
    layout ``run_grouped`` consumes: expert-major, sources in rank
    order within an expert, payload order within a source -- what a
    stable argsort of the concatenated rows' local expert ids gives.
    Each source's rows are decoded straight into their places; the
    returned per-source ``inverse`` says where they went (C2 gathers
    the results back with it).
    """
    flat = counts.ravel()
    # Each (source, expert) segment's first row in the payloads'
    # concatenation, and in the block.
    in_payloads = np.cumsum(flat) - flat
    by_expert = counts.T.ravel()
    in_block = (np.cumsum(by_expert) - by_expert).reshape(counts.T.shape).T
    inverse = np.repeat(in_block.ravel() - in_payloads, flat)
    inverse += np.arange(inverse.size)
    inverses = np.split(inverse, np.cumsum(counts.sum(axis=1))[:-1])
    block = np.empty((inverse.size, width), dtype=np.float32)
    for idx, rows in zip(inverses, payloads):
        block[idx] = rows()
    return block, inverses


class ExpertParallelGroup:
    """P logical workers sharing one MoE layer's parameters.

    The group borrows the gate and expert parameters of an existing
    :class:`MoELayer`; which worker "hosts" each expert is an
    :class:`~repro.moe.placement.ExpertPlacement` — by default the
    historical contiguous layout (expert ``e`` lives on worker
    ``e // (E // P)``), but any possibly-unequal assignment works, and
    :meth:`set_placement` / :meth:`admit_worker` change it at runtime
    (elastic re-sharding — see :mod:`repro.faults.recovery`).  The
    forward output can be compared bit-for-bit against the
    single-process layer under every placement.

    See the module docstring for the group's reference semantics.
    ``num_chunks`` is the paper's partition degree r; ``pipeline``
    selects synchronous chunk-major execution (``"sync"``) or the
    two-stream overlap executor (``"overlap"``), whose task order
    comes from the ``scheduler`` policy (any
    :func:`~repro.core.scheduler.register_scheduler` name).

    ``link_bandwidth`` (bytes/second, ``None`` = off) adds a wire-time
    model to the A2A tasks: each chunk's *cross-worker* payload bytes
    occupy the link for ``bytes / bandwidth`` seconds (a GIL-released
    wait, like a NIC DMA that burns no CPU) after the staging memcpy.
    The bytes are the encoded ones — the
    :attr:`~repro.compression.base.CompressedTensor.nbytes` the codec
    produced in C1/C2, fp32 rows only without a codec.  On the real
    system the interconnect transfer is exactly this — link occupancy
    concurrent with the SMs — and it is what ScheMoE hides behind
    expert GEMMs; on a core-starved host the wire time is the part of
    the A2A that can *always* overlap.  Both pipeline modes run the
    same task closures, so sync pays the same wire time, serially.
    The model never touches numerics — outputs are bit-identical with
    it on or off.
    """

    def __init__(
        self,
        layer: MoELayer,
        num_workers: int,
        pipeline: str = "sync",
        num_chunks: int = 1,
        scheduler: Union[str, Scheduler] = "optsche",
        link_bandwidth: Optional[float] = None,
        placement: Optional[ExpertPlacement] = None,
    ):
        num_experts = layer.gate.num_experts
        if placement is None:
            # The historical default: equal contiguous shards (and the
            # historical divisibility requirement that comes with it).
            if num_workers < 1 or num_experts % num_workers != 0:
                raise ValueError(
                    f"num_experts {num_experts} must be divisible by "
                    f"num_workers {num_workers}"
                )
            placement = ExpertPlacement.contiguous(num_experts, num_workers)
        elif num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if not float(num_chunks).is_integer():
            raise ValueError(f"num_chunks must be an integer, got {num_chunks}")
        if num_chunks < 1:
            raise ValueError(f"num_chunks must be >= 1, got {num_chunks}")
        if link_bandwidth is not None and not (
            math.isfinite(link_bandwidth) and link_bandwidth > 0
        ):
            raise ValueError(
                "link_bandwidth must be a finite number > 0 bytes/s, "
                f"got {link_bandwidth}"
            )
        self.link_bandwidth = link_bandwidth
        self.layer = layer
        self.num_workers = num_workers
        self.pipeline = validate_pipeline(pipeline)
        self.num_chunks = int(num_chunks)
        self._executor = StreamExecutor(scheduler)
        #: Per-task (start, end) seconds of the most recent chunked
        #: forward (both pipeline modes), for overlap introspection.
        self.last_timeline: Optional[dict] = None
        #: Byte accounting of the most recent forward's two exchanges
        #: (``None`` until the first forward).
        self.last_dispatch_traffic: Optional[A2ATraffic] = None
        self.last_combine_traffic: Optional[A2ATraffic] = None
        self._in_forward = False
        self._dead_workers: frozenset = frozenset()
        self._placement: ExpertPlacement = placement
        self._validate_placement(placement)

    # -- placement ---------------------------------------------------------
    @property
    def placement(self) -> ExpertPlacement:
        """The current (versioned) expert→worker assignment."""
        return self._placement

    def _validate_placement(self, placement: ExpertPlacement) -> None:
        if placement.num_experts != self.layer.gate.num_experts:
            raise ValueError(
                f"placement covers {placement.num_experts} experts but "
                f"the layer has {self.layer.gate.num_experts}"
            )
        if placement.num_workers != self.num_workers:
            raise ValueError(
                f"placement spans {placement.num_workers} workers but "
                f"the group has {self.num_workers}"
            )

    def _check_not_in_forward(self, what: str) -> None:
        # Satellite guard: the overlap pipeline's StreamExecutor runs
        # task closures on two threads that read routing state
        # (placement, dead workers) without locks — mutating either
        # mid-forward is a data race, so fail loudly instead.
        if self._in_forward:
            raise RuntimeError(
                f"{what} cannot change while a forward pass is in "
                "flight: the pipeline's task threads are reading it; "
                "mutate the group only between forwards"
            )

    def set_placement(self, placement: ExpertPlacement) -> None:
        """Install a new expert→worker assignment (e.g. after recovery).

        The placement must cover the layer's experts and the group's
        worker count.  Callers move/re-instantiate any expert
        parameters themselves (the group borrows the layer's shared
        bank, so single-process there is nothing to copy) — see
        :class:`repro.faults.recovery.RecoveryController` for the full
        detect → adopt → re-instantiate sequence.  Rejected while a
        forward is in flight.
        """
        self._check_not_in_forward("the expert placement")
        self._validate_placement(placement)
        self._placement = placement

    def admit_worker(self) -> ExpertPlacement:
        """Scale up: admit worker ``num_workers`` and rebalance.

        The new worker takes over its fair share of experts with the
        minimal move set (:meth:`ExpertPlacement.with_worker_added`);
        the new placement (version bumped) is installed and returned.
        Callers then pass ``num_workers + 1`` shards to :meth:`forward`.
        Raises while any worker is dead: the rebalance could hand a
        dead worker's lost experts to the new rank with nothing
        restored, so recover them first.
        """
        self._check_not_in_forward("the worker count")
        if self._dead_workers:
            raise RuntimeError(
                "cannot admit a worker around dead workers "
                f"{sorted(self._dead_workers)}; recover them first"
            )
        new_placement = self._placement.with_worker_added()
        self.num_workers += 1
        self._placement = new_placement
        return new_placement

    # -- graceful degradation ----------------------------------------------
    @property
    def dead_workers(self) -> frozenset:
        """Workers currently treated as failed (empty when healthy)."""
        return self._dead_workers

    @property
    def dead_experts(self) -> frozenset:
        """Experts lost with the dead workers that hosted them."""
        return frozenset(
            e
            for w in self._dead_workers
            for e in self._placement.experts_of(w)
        )

    def set_dead_workers(self, dead_workers) -> None:
        """Declare workers failed mid-run (e.g. a crashed rank).

        A dead worker's expert shards are gone: no dispatch traffic is
        sent to it, it computes nothing, and the tokens that would
        have routed there are handled by the capacity-drop path —
        combined as zeros with gate renormalization over surviving
        experts — exactly like :meth:`MoELayer.set_dead_experts` with
        the worker's expert range.  The dead worker's *data* shard is
        still processed (in the real system the DP replica re-feeds
        it; here the caller keeps passing all P shards).  Declaring
        every worker dead is a total loss and is rejected, as is any
        change while a forward pass is in flight (the overlap
        pipeline's threads read this set).

        Degrading is one option; :class:`repro.faults.recovery.
        RecoveryController` is the other — survivors adopt the lost
        experts and routing returns to the full expert count.
        """
        self._check_not_in_forward("the dead-worker set")
        dead = frozenset(
            checked_ids(dead_workers, self.num_workers, "dead worker")
        )
        if len(dead) == self.num_workers:
            raise ValueError(
                "all workers declared dead; the group cannot degrade "
                "around a total loss"
            )
        self._dead_workers = dead

    # -- helpers -----------------------------------------------------------
    def _validate_shards(self, shards: List[np.ndarray]) -> List[np.ndarray]:
        if len(shards) != self.num_workers:
            raise ValueError(
                f"expected {self.num_workers} shards, got {len(shards)}"
            )
        model_dim = self.layer.model_dim
        out = []
        for w, shard in enumerate(shards):
            tokens = np.asarray(shard, dtype=np.float32)
            if tokens.ndim != 2 or tokens.shape[1] != model_dim:
                raise ValueError(
                    f"shard {w} must be (tokens, {model_dim}), got "
                    f"{tokens.shape}"
                )
            out.append(tokens)
        return out

    def _gate_shards(self, shards: List[np.ndarray]) -> list:
        """Every worker gates its own shard (shared parameters)."""
        gate = self.layer.gate
        dead_experts = self.dead_experts
        gate_outputs = []
        for tokens in shards:
            out = gate(Tensor(tokens))
            if dead_experts:
                # Tokens routed to a dead worker's experts fall back to
                # the capacity-drop path (combine as zeros, surviving
                # weights renormalized) before any dispatch happens —
                # the same degradation MoELayer.set_dead_experts applies.
                out = out.with_experts_dropped(dead_experts)
            gate_outputs.append(out)
        return gate_outputs

    # -- the distributed forward pass ---------------------------------------
    def forward(self, shards: List[np.ndarray]) -> List[np.ndarray]:
        """One synchronized forward over per-worker token shards.

        ``shards[w]`` is worker w's (tokens_w, model_dim) input.
        Returns the per-worker outputs: fresh arrays the caller owns.
        Also records ``self.last_dispatch_traffic`` /
        ``self.last_combine_traffic``.

        The outputs are plain numpy arrays, so nothing can backprop
        through the group: the gate and the expert GEMMs run under
        ``inference_mode()`` and record no autograd tape.  That flag
        only skips the tape; every op keeps its float operations, so
        the outputs are bit-identical to a taped forward.  It does not
        touch ``training`` either, which no forward reads.
        """
        shards = self._validate_shards(shards)
        with inference_mode():
            gate_outputs = self._gate_shards(shards)
            self._in_forward = True
            try:
                return self._forward_chunked(shards, gate_outputs)
            finally:
                self._in_forward = False

    def forward_concatenated(self, shards: List[np.ndarray]) -> np.ndarray:
        """Forward then concatenate outputs in worker order."""
        return np.concatenate(self.forward(shards), axis=0)

    # -- chunked task-graph execution ---------------------------------------
    def _forward_chunked(
        self, shards: List[np.ndarray], gate_outputs: list
    ) -> List[np.ndarray]:
        experts: Experts = self.layer.experts
        num_experts = self.layer.gate.num_experts
        model_dim = self.layer.model_dim
        workers = range(self.num_workers)
        dead_workers = self._dead_workers
        r = self.num_chunks
        # The placement, frozen for this forward: owner per expert and
        # each worker's hosted experts in ascending global-id order —
        # the local segment order of every expert-major buffer below.
        owner_of = self._placement.owner_array
        hosted = [
            np.asarray(self._placement.experts_of(w), dtype=np.int64)
            for w in workers
        ]

        def by_chunk(bounds: np.ndarray, ids: np.ndarray) -> list:
            """Per chunk, the positions of the ``ids`` inside it."""
            chunk_of = np.searchsorted(bounds, ids, side="right") - 1
            return [np.nonzero(chunk_of == c)[0] for c in range(r)]

        # Per-worker routing metadata, gated once over the full shard
        # (chunking never re-gates: capacity, drops and weights are
        # those of the whole shard, so results match num_chunks=1),
        # all in the plan's expert-major order.
        plans = []  # [w] the gate's cached RoutingPlan
        weights: List[np.ndarray] = []  # [w] per grouped row
        chunk_edges: List[np.ndarray] = []  # [w] the shard's chunk_bounds
        members: List[List[np.ndarray]] = []  # [w][c] grouped rows
        for w in workers:
            plan = gate_outputs[w].plan
            plans.append(plan)
            weights.append(
                gate_outputs[w].gate_weights.data[
                    plan.grouped_token_ids, plan.grouped_choice_ids
                ]
            )
            bounds = chunk_bounds(shards[w].shape[0], r)
            chunk_edges.append(bounds)
            members.append(by_chunk(bounds, plan.grouped_token_ids))

        outputs = [
            np.zeros((shards[w].shape[0], model_dim), dtype=np.float32)
            for w in workers
        ]
        wire = (self.layer.compressor, self.num_workers)
        dispatch = _Transport(*wire, self.link_bandwidth)
        combine = _Transport(*wire, self.link_bandwidth)
        # Per-chunk hand-off around E.  Keys are chunk-scoped, every
        # entry is written by exactly one task and consumed (popped) by
        # its chain successor, so the two streams never race on it.
        expert_in: Dict[tuple, tuple] = {}
        expert_out: Dict[tuple, tuple] = {}

        def compress_dispatch(c: int) -> None:
            """C1: per-source flat payloads for the chunk's tokens, encoded.

            No per-chunk argsort: the chunk's expert-major order is
            the gate plan's grouped order restricted to the chunk's
            (contiguous) token range, bit-identical to what sorting
            the chunk's kept assignments would produce.  A
            destination's rows are that order restricted to the
            experts it hosts (``nonzero`` preserves order, so under a
            contiguous placement this is exactly the historical
            contiguous slice); their segment counts align with the
            destination's ascending hosted-expert order.
            """
            for src in workers:
                sel = members[src][c]
                if sel.size == 0:
                    continue
                g_tokens = plans[src].grouped_token_ids[sel]
                g_experts = plans[src].grouped_expert_ids[sel]
                counts = np.bincount(g_experts, minlength=num_experts)
                dst_of_row = owner_of[g_experts]
                for dst in workers:
                    if dst in dead_workers:
                        continue
                    rowsel = np.nonzero(dst_of_row == dst)[0]
                    if rowsel.size == 0:
                        continue
                    # The rows' positions within the chunk's grouped
                    # rows ride along to D2, which merges the returned
                    # rows at them.
                    dispatch.post(
                        c, src, dst, shards[src][g_tokens[rowsel]],
                        (counts[hosted[dst]], rowsel),
                    )

        def decompress_dispatch(c: int) -> None:
            """D1: decode into one expert-major block per destination.

            The block is expert-major over the destination's hosted
            experts (ascending global id); each source's inverse (where
            its rows went) and positions ride along to C2.
            """
            for dst in workers:
                got = dispatch.received(c, dst)
                if not got:
                    continue
                srcs, metas, payloads = zip(*got)
                counts, positions = zip(*metas)
                counts = np.stack(counts)
                rows, inverses = _assemble_expert_major(
                    counts, payloads, model_dim
                )
                counts_full = np.zeros(num_experts, dtype=np.int64)
                counts_full[hosted[dst]] = counts.sum(axis=0)
                back_index = list(zip(srcs, inverses, positions))
                expert_in[(c, dst)] = (rows, counts_full, back_index)

        def expert_compute(c: int) -> None:
            """E: grouped expert execution."""
            for dst in workers:
                item = expert_in.pop((c, dst), None)
                if item is None:
                    continue
                rows, counts_full, back_index = item
                out_rows = experts.run_grouped(Tensor(rows), counts_full).data
                expert_out[(c, dst)] = (out_rows, back_index)

        def compress_combine(c: int) -> None:
            """C2: split results back per source in row order, and encode."""
            for dst in workers:
                item = expert_out.pop((c, dst), None)
                if item is None:
                    continue
                out_rows, back_index = item
                for src, idx, positions in back_index:
                    combine.post(c, dst, src, out_rows[idx], positions)

        def decompress_combine(c: int) -> None:
            """D2: decode and merge, weighted, into the chunk's token rows."""
            for w in workers:
                sel = members[w][c]
                if sel.size == 0:
                    continue
                # Accumulate in the plan's expert-major order, the
                # order of the single-process combine_grouped: every
                # contribution to one token lives in this chunk, in
                # the same relative order, so each token's sum is
                # bit-identical to the layer's at any top-k.  The
                # chunk's rows are still +0.0 here (chunks own
                # disjoint token ranges), which is the scatter's
                # np.add.at-parity contract.  Each source's rows are
                # weighted as they are staged, as combine_grouped's.
                lo, hi = chunk_edges[w][c], chunk_edges[w][c + 1]
                got = combine.received(c, w)
                _scatter_add_parts(
                    outputs[w][lo:hi],
                    plans[w].grouped_token_ids[sel] - lo,
                    np.float32,
                    _weighted_parts(
                        weights[w][sel, None],
                        ((positions, rows()) for _, positions, rows in got),
                    ),
                )

        step = {
            TaskKind.C1: compress_dispatch,
            TaskKind.A1: dispatch.send,
            TaskKind.D1: decompress_dispatch,
            TaskKind.E: expert_compute,
            TaskKind.C2: compress_combine,
            TaskKind.A2: combine.send,
            TaskKind.D2: decompress_combine,
        }

        fns = {
            Task(kind, chunk): functools.partial(fn, chunk)
            for chunk in range(r)
            for kind, fn in step.items()
        }
        run = self._executor.run if self.pipeline == "overlap" else run_inline
        self.last_timeline = run(r, fns)

        self.last_dispatch_traffic = A2ATraffic(dispatch.traffic)
        self.last_combine_traffic = A2ATraffic(combine.traffic)
        return outputs
