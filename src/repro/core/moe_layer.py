"""The user-facing ScheMoE MoE layer (paper Listing 2).

``ScheMoELayer`` is the reproduction of::

    moe_module = schemoe.MoE(compress_name='zfp', comm_name='pipe', ...)

It is simultaneously:

* a numerical module — forward/backward through gate, dispatch,
  codec-corrupted transport, experts and combine, usable inside any
  :class:`~repro.nn.Module` model exactly like the paper's
  ``nn.Module``; and
* a system handle — :meth:`plan` profiles its own task sizes on a
  cluster and returns the scheduled execution plan (timeline +
  makespan) its configuration would achieve, which is what the
  benchmark harness aggregates into step times.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..cluster.topology import ClusterSpec
from ..collectives.base import get_a2a
from ..compression.base import get_compressor
from ..models.configs import MoEModelConfig
from ..moe.layer import MoELayer
from .profiler import Profiler
from .scheduler import ScheduleResult, get_scheduler
from .tasks import TaskDurations


@dataclass
class LayerPlan:
    """The scheduled execution plan of one layer pass."""

    durations: TaskDurations
    forward: ScheduleResult
    backward: ScheduleResult

    @property
    def step_seconds(self) -> float:
        """Forward + backward makespan of this MoE layer."""
        return self.forward.makespan + self.backward.makespan


class ScheMoELayer(MoELayer):
    """An MoE layer wired into the ScheMoE scheduling framework."""

    def __init__(
        self,
        model_dim: int,
        hidden_dim: int,
        num_experts: int,
        rng: np.random.Generator,
        top_k: int = 2,
        capacity_factor: float = 1.0,
        compress_name: str = "zfp",
        comm_name: str = "pipe",
        scheduler_name: str = "optsche",
        partitions="auto",
        activation: str = "relu",
    ):
        compressor = get_compressor(compress_name)
        super().__init__(
            model_dim,
            hidden_dim,
            num_experts,
            rng,
            top_k=top_k,
            capacity_factor=capacity_factor,
            compressor=compressor,
            activation=activation,
        )
        if partitions != "auto" and (
            not isinstance(partitions, numbers.Integral)
            or isinstance(partitions, bool)
            or partitions < 1
        ):
            raise ValueError(
                f"partitions must be 'auto' or an int >= 1, got {partitions}"
            )
        # Validate names eagerly so misconfiguration fails at build time.
        get_a2a(comm_name)
        get_scheduler(scheduler_name)
        self.compress_name = compress_name
        self.comm_name = comm_name
        self.scheduler_name = scheduler_name
        self.partitions = partitions

    # -- system side -----------------------------------------------------
    def layer_config(
        self, batch_per_gpu: int, seq_len: int
    ) -> MoEModelConfig:
        """This layer's shape as a single-layer model config."""
        return MoEModelConfig(
            name="schemoe-layer",
            num_layers=1,
            batch_per_gpu=batch_per_gpu,
            seq_len=seq_len,
            hidden_dim=self.experts.hidden_dim,
            model_dim=self.model_dim,
            top_k=self.gate.top_k,
            num_experts=self.gate.num_experts,
            capacity_factor=self.gate.capacity_factor,
        )

    #: Degrees tried when ``partitions="auto"`` (the adaptive choice
    #: the paper delegates to PipeMoE [43]).
    AUTO_PARTITION_CANDIDATES = (1, 2, 4)

    def plan(
        self,
        spec: ClusterSpec,
        batch_per_gpu: int,
        seq_len: int,
        profiler: Optional[Profiler] = None,
    ) -> LayerPlan:
        """Profile and schedule this layer's tasks on ``spec``.

        With ``partitions="auto"`` the plan with the smallest
        forward+backward makespan across the candidate degrees wins.
        """
        cfg = self.layer_config(batch_per_gpu, seq_len)
        if profiler is None:
            profiler = Profiler(
                spec,
                a2a=get_a2a(self.comm_name),
                compressor=get_compressor(self.compress_name),
            )
        scheduler = get_scheduler(self.scheduler_name)
        candidates = (
            self.AUTO_PARTITION_CANDIDATES
            if self.partitions == "auto"
            else (self.partitions,)
        )
        best: Optional[LayerPlan] = None
        for r in candidates:
            durations = profiler.profile_layer(cfg, r)
            plan = LayerPlan(
                durations=durations,
                forward=scheduler.schedule(r, durations),
                backward=scheduler.schedule(r, durations.backward()),
            )
            if best is None or plan.step_seconds < best.step_seconds:
                best = plan
        return best
