"""repro: a full reproduction of ScheMoE (EuroSys '24).

ScheMoE is an extensible mixture-of-experts training system with task
scheduling: pluggable compression (``AbsCompressor``), pluggable
all-to-all collectives (``AbsAlltoAll``, including the paper's
Pipe-A2A), and a provably optimal task scheduler (OptSche).

This package reproduces the whole system on two substrates (see
DESIGN.md): a deterministic discrete-event GPU-cluster simulator for
everything timing (:mod:`repro.cluster`, :mod:`repro.collectives`,
:mod:`repro.core`, :mod:`repro.systems`) and a from-scratch numpy
autograd stack for everything numerical (:mod:`repro.nn`,
:mod:`repro.moe`, :mod:`repro.models`, :mod:`repro.training`).

Quickstart::

    import numpy as np
    from repro import ScheMoELayer, paper_testbed

    layer = ScheMoELayer(
        model_dim=64, hidden_dim=128, num_experts=8,
        rng=np.random.default_rng(0),
        compress_name="zfp", comm_name="pipe", scheduler_name="optsche",
    )
    plan = layer.plan(paper_testbed(), batch_per_gpu=4, seq_len=128)
    print(plan.forward.render())
"""

from .cluster import ClusterSpec, SimCluster, paper_testbed
from .collectives import available_a2a, get_a2a, register_a2a
from .faults import (
    FaultError,
    FaultPlan,
    LinkFault,
    StragglerFault,
    TransientFaults,
)
from .compression import available_compressors, get_compressor, register_compressor
from .core import (
    OptScheScheduler,
    Profiler,
    ScheMoELayer,
    SystemPolicy,
    available_schedulers,
    get_scheduler,
    register_plugins,
    register_scheduler,
    simulate_model_step,
)
from .moe import MoELayer
from .systems import SystemRunner

__version__ = "1.0.0"

__all__ = [
    "ClusterSpec",
    "FaultError",
    "FaultPlan",
    "LinkFault",
    "MoELayer",
    "StragglerFault",
    "TransientFaults",
    "OptScheScheduler",
    "Profiler",
    "ScheMoELayer",
    "SimCluster",
    "SystemPolicy",
    "SystemRunner",
    "__version__",
    "available_a2a",
    "available_compressors",
    "available_schedulers",
    "get_a2a",
    "get_compressor",
    "get_scheduler",
    "paper_testbed",
    "register_a2a",
    "register_compressor",
    "register_plugins",
    "register_scheduler",
    "simulate_model_step",
]
