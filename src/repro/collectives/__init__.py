"""All-to-all collective algorithms on the simulated cluster.

Implements the four algorithms compared in the paper's Figure 9 —
NCCL-A2A, 1DH-A2A (HetuMoE), 2DH-A2A (Tutel / DeepSpeed-MoE) and the
paper's Pipe-A2A — plus the allreduce used for the data-parallel
gradients.  New algorithms register via :func:`register_a2a` and are
then schedulable by the ScheMoE core unchanged (the paper's
``AbsAlltoAll`` extension point).
"""

from .allreduce import hierarchical_allreduce_time
from .base import (
    A2AResult,
    AllToAll,
    available_a2a,
    get_a2a,
    measure_a2a,
    register_a2a,
)
from .hier_1d import Hier1DA2A
from .hier_2d import Hier2DA2A
from .nccl_a2a import NcclA2A
from .pipe_a2a import PipeA2A, phase_times, theoretical_max_speedup

__all__ = [
    "A2AResult",
    "AllToAll",
    "Hier1DA2A",
    "Hier2DA2A",
    "NcclA2A",
    "PipeA2A",
    "available_a2a",
    "get_a2a",
    "hierarchical_allreduce_time",
    "measure_a2a",
    "phase_times",
    "register_a2a",
    "theoretical_max_speedup",
]
