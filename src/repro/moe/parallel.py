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
C1 A1 D1 E C2 A2 D2 of :mod:`repro.core.tasks` with real work —

* C1: build the flat per-destination payloads (rows sorted by expert,
  plus per-expert segment counts) for the chunk's routed tokens, and
  encode each with the layer's codec
  (:meth:`~repro.compression.base.Compressor.encode`);
* A1: the dispatch all-to-all — a memcpy of each encoded payload into
  pooled staging buffers (:class:`~repro.nn.buffer_pool.BufferPool`);
* D1: each destination decompresses what it received and assembles
  the segments into one contiguous sorted-by-expert row block;
* E:  grouped expert execution
  (:meth:`~repro.moe.experts.Experts.run_grouped`);
* C2: split results back per source, in payload row order, and encode
  each split;
* A2: the combine all-to-all (pooled memcpy of the encoded payloads);
* D2: the owner decompresses and merges the chunk's results into its
  output rows, in the gate's original assignment order.

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
aux loss, bit-identical outputs).  It uses no arena either, so every
returned array is a fresh allocation the caller owns.  A future
expert-parallel backward must save the per-chunk E inputs it needs
explicitly, not lean on an incidental tape.

The group runs only the production path: a layer built with
``dispatch_mode="dense"`` is rejected at construction.  Its reference
is the dense single-process layer applied to each worker's shard with
the same dead experts — exact, not an approximation, because each
worker gates only its own shard and the expert FFNs work row by row.
"""

from __future__ import annotations

import dataclasses
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
from ..nn.buffer_pool import BufferPool
from ..nn.tensor import Tensor, _scatter_add_rows, inference_mode
from .experts import Experts
from .layer import MoELayer
from .placement import ExpertPlacement


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

    The layer must use ``dispatch_mode="sparse"``; the dense reference
    layer is rejected (see the module docstring for the group's
    reference semantics).  ``num_chunks`` is the paper's partition
    degree r; ``pipeline`` selects synchronous chunk-major execution
    (``"sync"``) or the two-stream overlap executor (``"overlap"``),
    whose task order comes from the ``scheduler`` policy (any
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
        dead_workers=(),
        pipeline: str = "sync",
        num_chunks: int = 1,
        scheduler: Union[str, Scheduler] = "optsche",
        link_bandwidth: Optional[float] = None,
        placement: Optional[ExpertPlacement] = None,
    ):
        if layer.dispatch_mode != "sparse":
            raise ValueError(
                "ExpertParallelGroup runs the sparse production path; "
                f"the layer uses dispatch_mode={layer.dispatch_mode!r} "
                "(compare against the dense layer applied per shard)"
            )
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
        if num_chunks < 1:
            raise ValueError(f"num_chunks must be >= 1, got {num_chunks}")
        if link_bandwidth is not None and link_bandwidth <= 0:
            raise ValueError(
                f"link_bandwidth must be > 0 bytes/s, got {link_bandwidth}"
            )
        self.link_bandwidth = link_bandwidth
        self.layer = layer
        self.num_workers = num_workers
        self.pipeline = validate_pipeline(pipeline)
        self.num_chunks = int(num_chunks)
        self._executor = StreamExecutor(scheduler)
        self._pool = BufferPool()
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
        if dead_workers:
            self.set_dead_workers(dead_workers)

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
        """
        self._check_not_in_forward("the worker count")
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
        dead = frozenset(int(w) for w in dead_workers)
        for w in dead:
            if not 0 <= w < self.num_workers:
                raise ValueError(
                    f"dead worker {w} out of range [0, {self.num_workers})"
                )
        if len(dead) == self.num_workers:
            raise ValueError(
                "all workers declared dead; the group cannot degrade "
                "around a total loss"
            )
        self._dead_workers = dead

    # -- helpers -----------------------------------------------------------
    def _occupy_link(self, wire_bytes: int) -> None:
        """Wire-time model: hold the link for the transfer duration.

        A timed wait, not CPU work — exactly the resource an
        interconnect transfer occupies — so the overlap executor can
        hide it behind the computing stream's GEMMs while sync pays it
        inline.  No-op when ``link_bandwidth`` is None or nothing
        crossed a worker boundary.
        """
        if self.link_bandwidth and wire_bytes:
            time.sleep(wire_bytes / self.link_bandwidth)

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
        the outputs are bit-identical to a taped forward, and it does
        not touch ``training`` (a train-mode noisy gate still draws
        its noise).
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
        pool = self._pool
        # The placement, frozen for this forward: owner per expert and
        # each worker's hosted experts in ascending global-id order —
        # the local segment order of every expert-major buffer below.
        owner_of = self._placement.owner_array
        hosted = [
            np.asarray(self._placement.experts_of(w), dtype=np.int64)
            for w in workers
        ]

        # Per-worker routing metadata, gated once over the full shard
        # (chunking never re-gates: capacity, drops and weights are
        # those of the whole shard, so results match num_chunks=1).
        token_ids: List[np.ndarray] = []
        expert_ids: List[np.ndarray] = []
        weights: List[np.ndarray] = []
        members: List[List[np.ndarray]] = []  # [w][c] kept positions
        plans = []  # [w] the gate's cached RoutingPlan
        chunk_edges: List[np.ndarray] = []  # [w] the shard's chunk_bounds
        grouped_members: List[List[np.ndarray]] = []  # [w][c] grouped rows
        for w in workers:
            plan = gate_outputs[w].plan
            plans.append(plan)
            token_ids.append(plan.kept_token_ids)
            expert_ids.append(plan.kept_expert_ids)
            weights.append(
                gate_outputs[w].gate_weights.data[plan.kept_weight_index]
            )
            bounds = chunk_bounds(shards[w].shape[0], r)
            chunk_edges.append(bounds)
            chunk_of = np.searchsorted(
                bounds, plan.kept_token_ids, side="right"
            ) - 1
            members.append(
                [np.nonzero(chunk_of == c)[0] for c in range(r)]
            )
            # The same restriction over the plan's expert-major order:
            # C1 slices these instead of re-sorting per chunk.
            g_chunk = np.searchsorted(
                bounds, plan.grouped_token_ids, side="right"
            ) - 1
            grouped_members.append(
                [np.nonzero(g_chunk == c)[0] for c in range(r)]
            )

        outputs = [
            np.zeros((shards[w].shape[0], model_dim), dtype=np.float32)
            for w in workers
        ]
        dispatch_traffic = np.zeros((self.num_workers, self.num_workers))
        combine_traffic = np.zeros((self.num_workers, self.num_workers))

        # The codec on the wire; None ships the fp32 rows themselves.
        codec: Optional[Compressor] = self.layer.compressor
        if codec is not None and codec.bits_per_value >= 32:
            codec = None

        def encode(rows: np.ndarray) -> Payload:
            """C1/C2's codec half: the payload as it crosses the wire."""
            return rows if codec is None else codec.encode(rows)

        def stage(payload: Payload) -> Payload:
            """A1/A2: memcpy the payload into pooled staging buffers."""
            if codec is None:
                return pool.take_copy(payload)
            return dataclasses.replace(
                payload,
                payload={
                    k: pool.take_copy(v) for k, v in payload.payload.items()
                },
            )

        def decode(staged: Payload) -> np.ndarray:
            """D1/D2's codec half: the fp32 rows of a staged payload."""
            return staged if codec is None else codec.decompress(staged)

        def release(staged: Payload) -> None:
            """Return a drained payload's staging buffers to the pool."""
            for buf in [staged] if codec is None else staged.payload.values():
                pool.release(buf)

        # Mutable per-chunk state handed from task to task.  Keys are
        # chunk-scoped, every entry is written by exactly one task and
        # consumed (popped) by its chain successor, so the two streams
        # never race on it.
        pending_dispatch: Dict[int, list] = {}
        inbox: Dict[tuple, list] = {}
        assembled: Dict[tuple, tuple] = {}
        expert_out: Dict[tuple, tuple] = {}
        pending_return: Dict[int, list] = {}
        returned: Dict[tuple, list] = {}
        return_map: Dict[tuple, np.ndarray] = {}

        def compress_dispatch(c: int) -> None:
            """C1: per-source flat payloads for the chunk's tokens, encoded.

            No per-chunk argsort: the chunk's expert-major order is
            the gate plan's global permutation restricted to the
            chunk's (contiguous) token range, bit-identical to what
            sorting the chunk's kept assignments would produce —
            ``searchsorted`` re-bases it to chunk-local positions.
            A destination's rows are that order restricted to the
            experts it hosts (``nonzero`` preserves order, so under a
            contiguous placement this is exactly the historical
            contiguous slice); ``dst_counts`` aligns with the
            destination's ascending hosted-expert order.
            """
            payloads = []
            for src in workers:
                sel = members[src][c]
                if sel.size == 0:
                    continue
                gm = grouped_members[src][c]
                sorted_sel = plans[src].grouped_kept_pos[gm]
                order = np.searchsorted(sel, sorted_sel)
                g_experts = plans[src].grouped_expert_ids[gm]
                counts = np.bincount(
                    g_experts, minlength=num_experts
                ).astype(np.int64)
                dst_of_row = owner_of[g_experts]
                for dst in workers:
                    if dst in dead_workers:
                        continue
                    rowsel = np.nonzero(dst_of_row == dst)[0]
                    if rowsel.size == 0:
                        continue
                    dst_counts = counts[hosted[dst]]
                    rows = shards[src][
                        token_ids[src][sorted_sel[rowsel]]
                    ]
                    payloads.append((src, dst, encode(rows), dst_counts))
                    # Positions within the chunk's kept-order list —
                    # how D2 puts returned rows back in gate order.
                    return_map[(c, src, dst)] = order[rowsel]
            pending_dispatch[c] = payloads

        def a2a_dispatch(c: int) -> None:
            """A1: stage the encoded payloads and hold the link for them."""
            wire_bytes = 0
            for src, dst, payload, counts in pending_dispatch.pop(c):
                staged = stage(payload)
                dispatch_traffic[src, dst] += staged.nbytes
                if src != dst:
                    wire_bytes += staged.nbytes
                inbox.setdefault((c, dst), []).append((src, staged, counts))
            self._occupy_link(wire_bytes)

        def decompress_dispatch(c: int) -> None:
            """D1: decompress, then assemble one sorted-by-expert block."""
            for dst in workers:
                entries = inbox.pop((c, dst), None)
                if not entries:
                    continue
                received = [decode(staged) for _, staged, _ in entries]
                src_offsets = [
                    np.concatenate([[0], np.cumsum(counts)])
                    for _, _, counts in entries
                ]
                pieces = []
                backs = [[] for _ in entries]
                counts_full = np.zeros(num_experts, dtype=np.int64)
                pos = 0
                # Expert-major over the destination's hosted experts
                # (ascending global id), sources in rank order within
                # an expert — the contiguous-segment layout
                # run_grouped consumes.
                for e_local, e in enumerate(hosted[dst]):
                    for i, (_, _, counts) in enumerate(entries):
                        n = int(counts[e_local])
                        if n == 0:
                            continue
                        lo = int(src_offsets[i][e_local])
                        pieces.append(received[i][lo : lo + n])
                        backs[i].append(np.arange(pos, pos + n))
                        pos += n
                    counts_full[e] = sum(
                        int(counts[e_local]) for _, _, counts in entries
                    )
                rows = np.concatenate(pieces, axis=0)
                back_index = [
                    (entries[i][0], np.concatenate(backs[i]))
                    for i in range(len(entries))
                ]
                assembled[(c, dst)] = (rows, counts_full, back_index)
                for _, staged, _ in entries:
                    release(staged)

        def run_experts(c: int) -> None:
            """E: grouped expert execution."""
            for dst in workers:
                item = assembled.pop((c, dst), None)
                if item is None:
                    continue
                rows, counts_full, back_index = item
                out_rows = experts.run_grouped(Tensor(rows), counts_full).data
                expert_out[(c, dst)] = (out_rows, back_index)

        def compress_combine(c: int) -> None:
            """C2: split results back per source in row order, and encode."""
            returns = []
            for dst in workers:
                item = expert_out.pop((c, dst), None)
                if item is None:
                    continue
                out_rows, back_index = item
                for src, idx in back_index:
                    returns.append((dst, src, encode(out_rows[idx])))
            pending_return[c] = returns

        def a2a_combine(c: int) -> None:
            """A2: stage the encoded results and hold the link for them."""
            wire_bytes = 0
            for dst, src, payload in pending_return.pop(c):
                staged = stage(payload)
                combine_traffic[dst, src] += staged.nbytes
                if src != dst:
                    wire_bytes += staged.nbytes
                returned.setdefault((c, src), []).append((dst, staged))
            self._occupy_link(wire_bytes)

        def decompress_combine(c: int) -> None:
            """D2: decompress, then merge into the chunk's token rows."""
            for w in workers:
                sel = members[w][c]
                if sel.size == 0:
                    continue
                contrib = np.zeros((sel.size, model_dim), dtype=np.float32)
                for dst, staged in returned.pop((c, w), []):
                    contrib[return_map.pop((c, w, dst))] = decode(staged)
                    release(staged)
                # Accumulate in the gate's original assignment order:
                # bit-identical to the unchunked merge because every
                # contribution to one token lives in this chunk, in
                # the same relative order.  The chunk's rows are still
                # +0.0 here (chunks own disjoint token ranges), which
                # is the scatter's np.add.at-parity contract.
                lo, hi = chunk_edges[w][c], chunk_edges[w][c + 1]
                _scatter_add_rows(
                    outputs[w][lo:hi],
                    token_ids[w][sel] - lo,
                    weights[w][sel][:, None] * contrib,
                )

        step = {
            TaskKind.C1: compress_dispatch,
            TaskKind.A1: a2a_dispatch,
            TaskKind.D1: decompress_dispatch,
            TaskKind.E: run_experts,
            TaskKind.C2: compress_combine,
            TaskKind.A2: a2a_combine,
            TaskKind.D2: decompress_combine,
        }

        def bind(kind: TaskKind, chunk: int):
            return lambda: step[kind](chunk)

        fns = {
            Task(kind, chunk): bind(kind, chunk)
            for chunk in range(r)
            for kind in step
        }
        try:
            if self.pipeline == "overlap":
                self.last_timeline = self._executor.run(r, fns)
            else:
                self.last_timeline = run_inline(r, fns)
        finally:
            # A pass that aborts between A1/A2 and the D1/D2 that
            # drains them leaves staged payloads behind; both streams
            # have joined here, so hand them back to the pool.  Empty
            # after a clean pass.
            for entries in inbox.values():
                for _, staged, _ in entries:
                    release(staged)
            for entries in returned.values():
                for _, staged in entries:
                    release(staged)

        self.last_dispatch_traffic = A2ATraffic(dispatch_traffic)
        self.last_combine_traffic = A2ATraffic(combine_traffic)
        return outputs
