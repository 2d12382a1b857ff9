"""Simulated GPU cluster: the timing substrate of the reproduction.

This package replaces the paper's physical 32-GPU testbed with a
deterministic discrete-event simulator (see DESIGN.md, substitution
table).  It provides:

* :mod:`~repro.cluster.engine` — the event loop, processes, resources;
* :mod:`~repro.cluster.topology` — nodes / GPUs / links and the
  :class:`~repro.cluster.topology.SimCluster` runtime;
* :mod:`~repro.cluster.streams` — CUDA-stream (FIFO) semantics;
* :mod:`~repro.cluster.costmodel` — alpha-beta links and GPU roofline;
* :mod:`~repro.cluster.presets` — calibrated testbeds, including the
  paper's 8x4 RTX 2080 Ti / 100 Gb/s InfiniBand cluster.
"""

from .costmodel import (
    GpuModel,
    LinkModel,
    expert_capacity,
    fit_alpha_beta,
    fit_gemm_roofline,
    fit_link_model,
)
from .engine import AllOf, Engine, Event, Process, Resource, Timeout
from .presets import (
    PRESETS,
    custom_ratio_testbed,
    ethernet_cluster,
    get_preset,
    nvlink_dgx,
    paper_testbed,
)
from .streams import GpuStreams, Stream, make_streams
from .topology import ClusterSpec, GpuRuntime, NodeRuntime, SimCluster, SimulatedOOM

__all__ = [
    "AllOf",
    "ClusterSpec",
    "Engine",
    "Event",
    "GpuModel",
    "GpuRuntime",
    "GpuStreams",
    "LinkModel",
    "NodeRuntime",
    "PRESETS",
    "Process",
    "Resource",
    "SimCluster",
    "SimulatedOOM",
    "Stream",
    "Timeout",
    "custom_ratio_testbed",
    "ethernet_cluster",
    "expert_capacity",
    "fit_alpha_beta",
    "fit_gemm_roofline",
    "fit_link_model",
    "get_preset",
    "make_streams",
    "nvlink_dgx",
    "paper_testbed",
]
