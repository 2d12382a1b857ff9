"""The user-facing ScheMoE MoE layer (paper Listing 2).

``ScheMoELayer`` is the reproduction of::

    moe_module = schemoe.MoE(compress_name='zfp', comm_name='pipe', ...)

It is simultaneously:

* a numerical module — forward/backward through gate, dispatch,
  codec-corrupted transport, experts and combine, usable inside any
  :class:`~repro.nn.Module` model exactly like the paper's
  ``nn.Module``; and
* a system handle — :meth:`plan` simulates the layer's shape as a
  one-layer model step under its own ``SystemPolicy`` and returns the
  scheduled forward and backward passes it would achieve.
"""

from __future__ import annotations

import numbers
from typing import Optional

import numpy as np

from ..cluster.topology import ClusterSpec
from ..collectives.base import get_a2a
from ..compression.base import get_compressor
from ..models.configs import MoEModelConfig
from ..moe.layer import MoELayer
from .profiler import Profiler
from .scheduler import get_scheduler
from .system import (
    PARTITION_CANDIDATES,
    LayerTiming,
    SystemPolicy,
    simulate_model_step,
)


def layer_only_config(
    model_dim: int,
    hidden_dim: int,
    num_experts: int,
    batch_per_gpu: int,
    seq_len: int,
    top_k: int = 2,
    capacity_factor: float = 1.0,
) -> MoEModelConfig:
    """One bare MoE layer's shape as a ``layer_only`` model config."""
    return MoEModelConfig(
        name="schemoe-layer",
        num_layers=1,
        batch_per_gpu=batch_per_gpu,
        seq_len=seq_len,
        hidden_dim=hidden_dim,
        model_dim=model_dim,
        top_k=top_k,
        num_experts=num_experts,
        capacity_factor=capacity_factor,
        layer_only=True,
    )


def layer_policy(
    compress_name: str, comm_name: str, scheduler_name: str, partitions
) -> SystemPolicy:
    """The :class:`SystemPolicy` of a ScheMoE layer's plugins and r.

    ``partitions="auto"`` picks the fastest of ``PARTITION_CANDIDATES``.
    Every name is resolved here, so a misconfiguration fails early.
    """
    if partitions != "auto" and (
        not isinstance(partitions, numbers.Integral)
        or isinstance(partitions, bool)
        or partitions < 1
    ):
        raise ValueError(
            f"partitions must be 'auto' or an int >= 1, got {partitions}"
        )
    get_compressor(compress_name)
    get_a2a(comm_name)
    get_scheduler(scheduler_name)
    auto = partitions == "auto"
    return SystemPolicy(
        name="schemoe-layer",
        compressor=compress_name,
        a2a=comm_name,
        scheduler=scheduler_name,
        partitions=PARTITION_CANDIDATES if auto else (int(partitions),),
    )


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
    ):
        self.policy = layer_policy(
            compress_name, comm_name, scheduler_name, partitions
        )
        super().__init__(
            model_dim,
            hidden_dim,
            num_experts,
            rng,
            top_k=top_k,
            capacity_factor=capacity_factor,
            compressor=get_compressor(compress_name),
        )

    # -- system side -----------------------------------------------------
    def layer_config(
        self, batch_per_gpu: int, seq_len: int
    ) -> MoEModelConfig:
        """This layer's shape as a single-layer model config."""
        gate = self.gate
        return layer_only_config(
            self.model_dim, self.experts.hidden_dim, gate.num_experts,
            batch_per_gpu, seq_len, gate.top_k, gate.capacity_factor,
        )

    def plan(
        self,
        spec: ClusterSpec,
        batch_per_gpu: int,
        seq_len: int,
        profiler: Optional[Profiler] = None,
    ) -> LayerTiming:
        """Profile and schedule this layer's tasks on ``spec``.

        With ``partitions="auto"`` the degree with the smallest
        forward+backward makespan wins.
        """
        cfg = self.layer_config(batch_per_gpu, seq_len)
        return simulate_model_step(cfg, spec, self.policy, profiler).moe_layer
