"""Ablation: Pipe-A2A gain vs the intra/inter bandwidth ratio (Eq. 18).

The paper's discussion (Section 7, "Performance of Pipe-A2A") predicts
the maximum speedup S_max = (t_intra + t_inter) / max(t_intra,
t_inter): largest when the two phases are balanced, approaching 1 when
one dominates (e.g. NVLink boxes where intra is nearly free).

This bench sweeps the intra-fabric bandwidth on the paper-testbed
shape and compares the simulated NCCL->Pipe speedup against Eq. 18,
plus spot-checks the NVLink and Ethernet presets.

The measurements run through :func:`repro.systems.run_sweep` like the
other grids: each point is a pair of single-layer step simulations
(sequential scheduler, one partition, no codec) whose A2A task
duration *is* the raw all-to-all time of the probe payload.
"""

from __future__ import annotations

from repro.cluster import custom_ratio_testbed, ethernet_cluster, nvlink_dgx
from repro.collectives import theoretical_max_speedup
from repro.core.system import SystemPolicy
from repro.models.configs import MoEModelConfig
from repro.systems import SweepTask, naive, run_sweep

from _util import emit, once

SIZE = 2.56e8  # bandwidth-bound
RATIOS = (0.05, 0.2, 0.5, 1.0, 2.0, 8.0)
INTER = 7.5e9

#: Single-MoE-layer probe whose per-GPU A2A payload (paper Eq. 2:
#: f * k * B * L * M * 4 bytes = 64000 * 1000 * 4) equals ``SIZE``
#: exactly, so the simulated A2A task time is the raw all-to-all time
#: of the bandwidth-bound payload the Eq. 18 bound is evaluated at.
PROBE = MoEModelConfig(
    name="topology-probe",
    num_layers=1,
    batch_per_gpu=32,
    seq_len=2000,
    hidden_dim=1,
    model_dim=1000,
    top_k=1,
    num_experts=32,
    capacity_factor=1.0,
    layer_only=True,
)

assert PROBE.a2a_bytes == SIZE


def pipe_sequential() -> SystemPolicy:
    """Pipe-A2A with no pipelining/codec: isolates the algorithm."""
    return SystemPolicy(
        name="Pipe-Sequential",
        compressor="none",
        a2a="pipe",
        scheduler="sequential",
        partitions=(1,),
    )


def measured_speedup(spec) -> float:
    """Simulated NCCL->Pipe A2A speedup on ``spec`` via run_sweep."""
    nccl, pipe = run_sweep(
        [SweepTask(PROBE, naive()), SweepTask(PROBE, pipe_sequential())],
        spec,
        processes=1,
    )
    return nccl.moe_layer.durations.a2a / pipe.moe_layer.durations.a2a


def run_topology_sweep():
    rows = []
    for ratio in RATIOS:
        spec = custom_ratio_testbed(
            intra_bandwidth_bps=INTER * ratio, inter_bandwidth_bps=INTER
        )
        rows.append(
            {
                "ratio": ratio,
                "simulated": measured_speedup(spec),
                "eq18": theoretical_max_speedup(spec, SIZE),
            }
        )
    extra = {}
    for label, spec in (("nvlink_dgx", nvlink_dgx()), ("ethernet", ethernet_cluster())):
        extra[label] = (
            measured_speedup(spec),
            theoretical_max_speedup(spec, SIZE),
        )
    return rows, extra


def render(rows, extra) -> str:
    lines = [f"{'intra/inter':>11} {'simulated':>10} {'Eq.18 bound':>12}"]
    for e in rows:
        lines.append(
            f"{e['ratio']:>11.2f} {e['simulated']:>9.2f}x {e['eq18']:>11.2f}x"
        )
    lines.append("")
    for label, (sim, bound) in extra.items():
        lines.append(f"{label:<12} simulated={sim:.2f}x eq18={bound:.2f}x")
    return "\n".join(lines)


def test_topology_ablation(benchmark):
    rows, extra = once(benchmark, run_topology_sweep)
    emit("ablation_topology", render(rows, extra))
    for e in rows:
        # The simulator respects and approaches the analytic bound.
        assert e["simulated"] <= e["eq18"] * 1.02
        assert e["simulated"] >= e["eq18"] * 0.85
    # Gain peaks where intra and inter phase times balance.
    peak = max(rows, key=lambda e: e["eq18"])
    assert peak["ratio"] not in (RATIOS[0], RATIOS[-1])
    # NVLink boxes gain almost nothing (paper Section 7).
    nvlink_sim, _ = extra["nvlink_dgx"]
    assert nvlink_sim < 1.1
