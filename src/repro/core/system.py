"""End-to-end step-time model: a whole MoE model on a cluster.

Combines everything below it: per-MoE-layer task durations from the
:class:`~repro.core.profiler.Profiler`, a scheduling policy ordering
those tasks, dense-component costs (attention, gate, embedding/head,
optimizer) from the GPU model, and the data-parallel gradient
allreduce — yielding the per-step wall time the paper's Tables 1, 7, 8
and 10 and Figure 8 report.

Backward pass: the paper notes the dependency structure reverses but
the scheduling problem is symmetric; we model it by re-running the
schedule with :meth:`TaskDurations.backward` durations — compress and
decompress swap roles (the wire carries gradients), A2A payloads stay
the same size, and the expert costs 2x (dgrad + wgrad).

Memory: a simple but explicit per-GPU accounting (parameter state,
activations, A2A buffers, policy-specific overheads) reproduces the
OOM behaviours the paper observed — FasterMoE on BERT-Large-MoE
(Table 8, shadow-expert pools) and the largest Table 4 grid points.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional, Tuple

from ..cluster.topology import ClusterSpec
from ..collectives.allreduce import hierarchical_allreduce_time
from ..collectives.base import get_a2a
from ..compression.base import get_compressor
from ..models.configs import MoEModelConfig
from .profiler import Profiler
from .scheduler import ScheduleResult, get_scheduler
from .tasks import TaskDurations

#: Bytes of optimizer/parameter state per trainable parameter:
#: fp16 working copy (2) + fp32 master (4) + grad (4) + Adam m, v (8),
#: rounded up for allocator slack.
PARAM_STATE_BYTES = 20.0

#: Expert backward costs roughly 2x forward (dgrad + wgrad GEMMs).
BACKWARD_EXPERT_FACTOR = 2.0

#: Per-step host-side overhead of a full training step (data loading,
#: Python driver, launch gaps between layers).  Layer microbenchmarks
#: (``layer_only`` configs) run a tight kernel loop and skip it.
HOST_OVERHEAD_S = 25.0e-3

#: Partition degrees an adaptive policy chooses among (the paper
#: delegates choosing r to PipeMoE [43]; Tutel searches it
#: heuristically).
PARTITION_CANDIDATES = (1, 2, 4)


@dataclass(frozen=True)
class SystemPolicy:
    """One training-system configuration (a row of paper Table 9).

    ``shadow_expert_layers`` prices policy-specific buffers: for the
    FasterMoE policy it is the shadow-expert pool (replicas of popular
    experts kept for several in-flight layers), the mechanism behind
    its BERT-Large-MoE OOM in paper Table 8.
    """

    name: str
    compressor: str = "none"
    a2a: str = "nccl"
    scheduler: str = "sequential"
    #: Partition degrees r the system may run at.  The simulator picks
    #: the degree with the best layer makespan, the first on a tie,
    #: mirroring Tutel's heuristic search and ScheMoE's adaptive choice
    #: (paper Section 4 cites PipeMoE [43] for selecting r).  A 1-tuple
    #: is a fixed degree: FasterMoE keeps r = 2 (Section 8).
    partitions: Tuple[int, ...] = (1,)
    shadow_expert_layers: int = 0
    #: Multiplier on A2A task durations: prices implementation slack
    #: of a system's own grouped send/recv path relative to plain
    #: NCCL (FasterMoE's custom A2A shows such slack in paper Table 7).
    comm_inefficiency: float = 1.0
    #: Whether the system clips per-expert intake at the Eq. 1
    #: capacity (GShard/Tutel/ScheMoE do; FasterMoE processes every
    #: routed token).  Governs sensitivity to routing imbalance.
    enforces_capacity: bool = True

    def __post_init__(self) -> None:
        if not (
            isinstance(self.partitions, tuple)
            and self.partitions
            and all(
                isinstance(r, numbers.Integral)
                and not isinstance(r, bool)
                and r >= 1
                for r in self.partitions
            )
        ):
            raise ValueError(
                "partitions must be a non-empty tuple of degrees >= 1, "
                f"got {self.partitions!r}"
            )
        # Written so that NaN fails the check too.
        if not self.shadow_expert_layers >= 0:
            raise ValueError("shadow_expert_layers must be >= 0")
        if not self.comm_inefficiency >= 1.0:
            raise ValueError("comm_inefficiency must be >= 1")


@dataclass
class LayerTiming:
    """One MoE layer's scheduled forward and backward passes.

    ``partitions`` is the degree r both schedules run at: the fastest
    of the policy's degrees.
    """

    durations: TaskDurations
    partitions: int
    forward: ScheduleResult
    backward: ScheduleResult

    @property
    def forward_s(self) -> float:
        return self.forward.makespan

    @property
    def backward_s(self) -> float:
        return self.backward.makespan

    @property
    def total_s(self) -> float:
        """Forward + backward makespan of this MoE layer."""
        return self.forward_s + self.backward_s


@dataclass
class StepBreakdown:
    """Per-component step time (seconds, per training step)."""

    model: str
    policy: str
    moe_layer: LayerTiming
    num_moe_layers: int
    attention_s: float
    gate_s: float
    head_s: float
    allreduce_s: float
    optimizer_s: float
    memory_bytes: float
    oom: bool = False

    @property
    def moe_total_s(self) -> float:
        return self.moe_layer.total_s * self.num_moe_layers

    @property
    def a2a_total_s(self) -> float:
        """Total time attributable to A2A communication tasks.

        The paper's Table 1 "A2A time" counts the communication tasks'
        elapsed time within the step (whether or not overlapped).
        """
        layer = self.moe_layer
        per_layer = 4.0 * layer.durations.a2a * layer.partitions
        return per_layer * self.num_moe_layers

    @property
    def total_s(self) -> float:
        if self.oom:
            return float("inf")
        return (
            self.moe_total_s
            + self.attention_s
            + self.gate_s
            + self.head_s
            + self.allreduce_s
            + self.optimizer_s
        )

    @property
    def a2a_ratio(self) -> float:
        """A2A time over step time (paper Table 1's "Ratio")."""
        total = self.total_s
        if total <= 0 or self.oom:
            return 0.0
        return min(1.0, self.a2a_total_s / total)


def dense_param_count(cfg: MoEModelConfig) -> int:
    """Data-parallel (replicated) parameters: attention, embeddings, gates."""
    gates = cfg.num_layers * cfg.model_dim * cfg.num_experts
    return cfg.attention_params + cfg.embedding_params + gates


def local_param_count(cfg: MoEModelConfig, spec: ClusterSpec) -> int:
    """Parameters resident on one GPU (local experts + replicated dense)."""
    experts_per_gpu = max(1, cfg.num_experts // spec.world_size)
    local_experts = cfg.num_layers * experts_per_gpu * cfg.expert_params
    return local_experts + dense_param_count(cfg)


def estimate_memory_bytes(
    cfg: MoEModelConfig, spec: ClusterSpec, policy: SystemPolicy
) -> float:
    """Per-GPU memory of training ``cfg`` under ``policy``.

    Terms: parameter/optimizer state, MoE activations kept for
    backward (activation checkpointing at layer granularity: one
    layer's working set plus per-layer boundaries), A2A wire buffers,
    and the policy's shadow-expert pool.
    """
    params = local_param_count(cfg, spec) * PARAM_STATE_BYTES

    tokens = cfg.tokens_per_gpu
    assignments = cfg.expert_tokens_per_gpu  # ~ f * k * B * L
    elem = 4.0
    # Live working set of one MoE layer: input/output token tensors,
    # dispatched input and expert output at capacity, expert hidden.
    working = (
        2.0 * tokens * cfg.model_dim * elem
        + 2.0 * assignments * cfg.model_dim * elem
        + assignments * cfg.hidden_dim * elem
    )
    # Checkpointed boundaries of every layer.
    boundaries = cfg.num_layers * tokens * cfg.model_dim * elem

    codec = get_compressor(policy.compressor)
    wire = codec.compressed_bytes(cfg.a2a_bytes)
    a2a_buffers = 2.0 * wire  # send + recv staging

    shadow = (
        policy.shadow_expert_layers
        * cfg.num_experts
        * cfg.expert_params
        * 4.0
    )
    return params + working + boundaries + a2a_buffers + shadow


def simulate_model_step(
    cfg: MoEModelConfig,
    spec: ClusterSpec,
    policy: SystemPolicy,
    profiler: Optional[Profiler] = None,
    skew: Optional["RoutingSkew"] = None,
) -> StepBreakdown:
    """Simulate one training step; returns the component breakdown.

    ``skew`` injects dynamic routing imbalance (paper Section 2.1):
    the expert task slows by the hot expert's load factor — clipped at
    the capacity factor for capacity-enforcing systems — and
    capacity-free systems additionally grow their receive buffers.

    An out-of-memory policy/model combination yields ``oom=True`` with
    infinite total time (the way the paper reports FasterMoE on
    BERT-Large-MoE) rather than raising.
    """
    if profiler is None:
        profiler = Profiler(
            spec,
            a2a=get_a2a(policy.a2a),
            compressor=get_compressor(policy.compressor),
        )
    scheduler = get_scheduler(policy.scheduler)
    gpu = spec.gpu

    expert_factor = 1.0
    if skew is not None:
        expert_factor = skew.load_factor(
            cfg.num_experts, cfg.capacity_factor, policy.enforces_capacity
        )

    def layer_timing(partitions: int) -> LayerTiming:
        durations = profiler.profile_layer(cfg, partitions)
        if (
            policy.comm_inefficiency > 1.0 or expert_factor > 1.0
        ) and durations.a2a != float("inf"):
            durations = TaskDurations(
                compress=durations.compress,
                a2a=durations.a2a * policy.comm_inefficiency,
                decompress=durations.decompress,
                expert=durations.expert * expert_factor,
            )
        return LayerTiming(
            durations,
            partitions,
            forward=scheduler.schedule(partitions, durations),
            backward=scheduler.schedule(
                partitions, durations.backward(BACKWARD_EXPERT_FACTOR)
            ),
        )

    # The first of equally fast degrees wins.
    layer = min(map(layer_timing, policy.partitions), key=lambda t: t.total_s)

    memory = estimate_memory_bytes(cfg, spec, policy)
    if skew is not None and not policy.enforces_capacity:
        # Capacity-free systems size receive buffers for the hot
        # expert's actual intake on its GPU.
        assignments = cfg.expert_tokens_per_gpu
        working = (
            2.0 * assignments * cfg.model_dim
            + assignments * cfg.hidden_dim
        ) * 4.0
        memory += (skew.buffer_factor(cfg.num_experts) - 1.0) * working
    oom = memory > gpu.memory_bytes or layer.forward_s == float("inf")

    if oom:
        return StepBreakdown(
            model=cfg.name,
            policy=policy.name,
            moe_layer=layer,
            num_moe_layers=cfg.num_layers,
            attention_s=0.0,
            gate_s=0.0,
            head_s=0.0,
            allreduce_s=0.0,
            optimizer_s=0.0,
            memory_bytes=memory,
            oom=True,
        )

    tokens = cfg.tokens_per_gpu
    # fwd + 2x bwd
    attention = cfg.num_layers * 3.0 * profiler.attention_seconds(cfg)
    if cfg.layer_only:
        head = 0.0
    else:
        head_fwd = gpu.gemm_time(
            2.0 * tokens * cfg.model_dim * cfg.vocab_size
        )
        embed = gpu.memory_time(2.0 * tokens * cfg.model_dim * 4.0)
        head = 3.0 * head_fwd + 3.0 * embed

    gate_fwd = gpu.gemm_time(
        2.0 * tokens * cfg.model_dim * cfg.num_experts
    ) + gpu.memory_time(4.0 * tokens * cfg.num_experts * 4.0)
    gate = cfg.num_layers * 3.0 * gate_fwd

    # Dense gradients are reduced in fp16 (standard mixed precision);
    # every compared system overlaps roughly half the allreduce with
    # backward compute, so only half is exposed in the step time.
    allreduce = 0.5 * hierarchical_allreduce_time(
        spec, dense_param_count(cfg) * 2.0
    )
    optimizer = gpu.memory_time(
        local_param_count(cfg, spec) * PARAM_STATE_BYTES
    )
    if not cfg.layer_only:
        optimizer += HOST_OVERHEAD_S

    return StepBreakdown(
        model=cfg.name,
        policy=policy.name,
        moe_layer=layer,
        num_moe_layers=cfg.num_layers,
        attention_s=attention,
        gate_s=gate,
        head_s=head,
        allreduce_s=allreduce,
        optimizer_s=optimizer,
        memory_bytes=memory,
    )
