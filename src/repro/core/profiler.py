"""The Profiler: measures task durations for the performance models.

As in the paper (Fig. 4), every task the abstraction modules emit is
profiled so the scheduler can order tasks from measured time, not
assumptions: communication tasks are measured by actually running the
configured all-to-all algorithm on the simulated cluster;
compress/decompress tasks are priced by the codec's cost model; expert
tasks by the GPU GEMM model.  Its methods are the one home of each
task's price: :meth:`Profiler.expert_seconds` prices the paper's
expert abstraction (:class:`~repro.moe.experts.Experts`, two GEMMs)
and :meth:`Profiler.attention_seconds` a dense attention block; the
step model (:mod:`repro.core.system`) and the event executor
(:mod:`repro.core.model_executor`) both ask it.

The planner samples the same methods at probe sizes and fits the
curves into linear (alpha + beta * size) performance models
(:class:`LinearPerfModel`), so durations at unmeasured sizes can be
predicted — the "meta-data (e.g. time performance models)" the paper's
scheduler consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..cluster.costmodel import (
    attention_forward_flops,
    check_count,
    ffn_forward_flops,
)
from ..cluster.topology import ClusterSpec
from ..collectives.base import AllToAll, measure_a2a
from ..compression.base import Compressor
from ..models.configs import MoEModelConfig
from .tasks import TaskDurations


@dataclass(frozen=True)
class LinearPerfModel:
    """t(size) = alpha + beta * size, least-squares fitted.

    Build one from measurements with
    ``LinearPerfModel(*fit_alpha_beta(sizes, times))``
    (:func:`~repro.cluster.costmodel.fit_alpha_beta`).
    """

    alpha: float
    beta: float

    def predict(self, size: float) -> float:
        """Predicted seconds for a payload of ``size`` bytes."""
        return max(0.0, self.alpha + self.beta * size)


class Profiler:
    """Profiles the tasks of an MoE layer under one system policy.

    One instance caches all-to-all measurements (keyed by algorithm
    and payload size), so parameter sweeps such as the paper's 675-
    configuration Figure 8 reuse measurements across configurations.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        a2a: AllToAll,
        compressor: Compressor,
    ):
        self.spec = spec
        self.a2a = a2a
        self.compressor = compressor
        self._a2a_cache: Dict[Tuple[str, float], float] = {}
        #: Real (cache-missing) A2A measurements this profiler ran —
        #: the planner's probe accounting reads it.
        self.a2a_measurements = 0

    # -- individual task measurements -----------------------------------
    def measure_a2a_seconds(self, wire_bytes: float) -> float:
        """All-to-all time for a per-GPU payload of ``wire_bytes``.

        Returns ``inf`` when the algorithm runs out of simulated
        device memory (paper Fig. 9(c), 1DH-A2A at large tensors).
        """
        key = (self.a2a.name, wire_bytes)
        if key not in self._a2a_cache:
            result = measure_a2a(self.a2a, self.spec, wire_bytes)
            self._a2a_cache[key] = result.seconds
            self.a2a_measurements += 1
        return self._a2a_cache[key]

    def compress_seconds(self, raw_bytes: float) -> float:
        """One compression task over ``raw_bytes`` of fp32 payload."""
        return self.compressor.compress_cost(raw_bytes)

    def decompress_seconds(self, raw_bytes: float) -> float:
        """One decompression task back to ``raw_bytes`` of fp32."""
        return self.compressor.decompress_cost(raw_bytes)

    def expert_seconds(self, tokens: int, model_dim: int, hidden_dim: int) -> float:
        """Forward time of one GPU's local experts over ``tokens``."""
        flops = ffn_forward_flops(tokens, model_dim, hidden_dim)
        return self.spec.gpu.gemm_time(flops, tensor_core=True)

    def attention_seconds(self, cfg: MoEModelConfig) -> float:
        """Forward time of one dense attention block (0 for ``layer_only``).

        Attention runs in fp32: the softmax/masking chain and the fp32
        A2A-era activation layout keep it off tensor cores.
        """
        if cfg.layer_only:
            return 0.0
        gpu = self.spec.gpu
        tokens = cfg.tokens_per_gpu
        return gpu.gemm_time(
            attention_forward_flops(tokens, cfg.model_dim, cfg.seq_len)
        ) + gpu.memory_time(8.0 * tokens * cfg.model_dim * 4.0)

    # -- layer-level profile ----------------------------------------------
    def profile_layer(
        self, cfg: MoEModelConfig, partitions: int
    ) -> TaskDurations:
        """Per-chunk task durations for one MoE layer of ``cfg``."""
        partitions = check_count("partitions", partitions)
        raw_chunk = cfg.a2a_bytes / partitions
        wire_chunk = self.compressor.compressed_bytes(raw_chunk)
        tokens_chunk = max(1, cfg.expert_tokens_per_gpu // partitions)
        return TaskDurations(
            compress=self.compress_seconds(raw_chunk),
            a2a=self.measure_a2a_seconds(wire_chunk),
            decompress=self.decompress_seconds(raw_chunk),
            expert=self.expert_seconds(
                tokens_chunk, cfg.model_dim, cfg.hidden_dim
            ),
        )
