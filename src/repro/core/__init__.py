"""The ScheMoE core: abstractions, task queue, profiler, schedulers.

The paper's primary contribution (Sections 3-4): time-consuming MoE
operations are modularized behind ``AbsCompressor`` / ``AbsAlltoAll``
(the experts are :class:`~repro.moe.experts.Experts`); the resulting
tasks are profiled and re-ordered by a pluggable scheduler, with
:class:`OptScheScheduler` implementing the provably optimal order of
Theorem 1.
"""

from .abstractions import AbsAlltoAll, AbsCompressor, register_plugins
from .imbalance import BALANCED, RoutingSkew
from .model_executor import ExecutionReport, ModelExecutor
from .moe_layer import ScheMoELayer
from .profiler import LinearPerfModel, Profiler
from .runtime import (
    PIPELINE_MODES,
    StreamExecutor,
    chunk_bounds,
    run_inline,
    validate_pipeline,
)
from .scheduler import (
    BruteForceScheduler,
    ChunkPipelineScheduler,
    InvalidScheduleError,
    OptScheScheduler,
    ScheduleResult,
    Scheduler,
    SequentialScheduler,
    available_schedulers,
    get_scheduler,
    register_scheduler,
    sample_comp_orders,
    simulate_order,
    valid_comp_orders,
)
from .system import (
    PARAM_STATE_BYTES,
    PARTITION_CANDIDATES,
    LayerTiming,
    StepBreakdown,
    SystemPolicy,
    dense_param_count,
    estimate_memory_bytes,
    local_param_count,
    simulate_model_step,
)
from .tasks import CHAIN, Task, TaskDurations, TaskKind, make_tasks

__all__ = [
    "AbsAlltoAll",
    "AbsCompressor",
    "BruteForceScheduler",
    "BALANCED",
    "CHAIN",
    "ChunkPipelineScheduler",
    "ExecutionReport",
    "InvalidScheduleError",
    "LayerTiming",
    "LinearPerfModel",
    "ModelExecutor",
    "OptScheScheduler",
    "PARAM_STATE_BYTES",
    "PARTITION_CANDIDATES",
    "PIPELINE_MODES",
    "Profiler",
    "RoutingSkew",
    "StreamExecutor",
    "ScheMoELayer",
    "ScheduleResult",
    "Scheduler",
    "SequentialScheduler",
    "StepBreakdown",
    "SystemPolicy",
    "Task",
    "TaskDurations",
    "TaskKind",
    "available_schedulers",
    "chunk_bounds",
    "dense_param_count",
    "estimate_memory_bytes",
    "get_scheduler",
    "local_param_count",
    "make_tasks",
    "register_plugins",
    "register_scheduler",
    "run_inline",
    "sample_comp_orders",
    "simulate_model_step",
    "simulate_order",
    "valid_comp_orders",
    "validate_pipeline",
]
