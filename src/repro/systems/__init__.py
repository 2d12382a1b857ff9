"""Training-system policies (ScheMoE, Tutel, FasterMoE, ablations).

Each baseline of the paper's evaluation is expressed as a
:class:`~repro.core.system.SystemPolicy` — a (codec, A2A algorithm,
scheduler, partition degree, memory overhead) tuple — executed by the
shared step-time simulator, so every comparison runs on identical
simulated hardware the way the paper's comparisons ran on identical
physical hardware.
"""

from .policies import (
    ALL_POLICIES,
    ablation_suite,
    comparison_suite,
    fastermoe,
    naive,
    schemoe,
    schemoe_no_compression,
    schemoe_z,
    schemoe_zp,
    tutel,
)
from .runner import SpeedupStats, SystemRunner
from .sweep import SweepTask, run_sweep

__all__ = [
    "ALL_POLICIES",
    "SpeedupStats",
    "SweepTask",
    "SystemRunner",
    "ablation_suite",
    "comparison_suite",
    "fastermoe",
    "naive",
    "run_sweep",
    "schemoe",
    "schemoe_no_compression",
    "schemoe_z",
    "schemoe_zp",
    "tutel",
]
