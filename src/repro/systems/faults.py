"""The fault study: schedules and A2A algorithms under injected faults.

One study, built once and shared by
``benchmarks/bench_ablation_faults.py`` (which saves the rendered text
and the report as its sidecar) and
``python -m repro faults`` (which prints the same text for any
``--cluster`` preset).

A straggler GPU (rank 0, compute slowdown 1x..4x) is swept across
every scheduling policy x A2A algorithm combination, executing the
CT-MoE layer pass on the faulted event-level cluster.  The schedule is
always planned against the *healthy* profile — the scheduler does not
know about the straggler — so the sweep measures how gracefully each
policy's overlap absorbs a slow GPU it did not plan for.  Two
communication-fault studies ride along: a flapping inter-node link
(periodic bandwidth collapse in the alpha-beta model) and transient
transfer failures with seeded retry/backoff.

Everything runs in simulated time, so the report is bit-for-bit
deterministic: the same :class:`~repro.faults.FaultPlan` seed yields
the same report on every machine and every rerun.
"""

from __future__ import annotations

import dataclasses
from typing import List

from ..cluster.topology import ClusterSpec
from ..collectives import get_a2a, measure_a2a
from ..compression import get_compressor
from ..core import ModelExecutor, get_scheduler
from ..faults import (
    FaultPlan,
    TransientFaults,
    flapping_link,
    single_straggler,
)
from ..models import ct_moe

#: The straggler grid (scheduler x A2A x slowdown) and the algorithms
#: each link-fault study measures.
FULL = {
    "slowdowns": [1.0, 1.5, 2.0, 4.0],
    "schedulers": ["sequential", "chunk-pipeline", "optsche"],
    "a2a": ["nccl", "2dh", "pipe"],
    "transient_algos": ["nccl", "pipe"],
}

#: The model whose MoE layer pass (one layer, no attention) every
#: straggler run executes.
MODEL = ct_moe()
#: Message size for the communication-fault studies (bytes per GPU).
A2A_BYTES = 6.4e7
#: Transient-failure scenario: seeded per-transfer failure probability
#: with exponential backoff; the seed makes the whole retry history a
#: pure function of the plan.
TRANSIENT = {
    "probability": 0.05,
    "max_retries": 6,
    "backoff_s": 100e-6,
    "backoff_multiplier": 2.0,
    "seed": 7,
}
#: Flapping-link scenario: node 0's NIC collapses to 10% bandwidth for
#: the first half of every 2 ms period.
FLAPPING = {
    "node": 0,
    "link": "nic",
    "period_s": 2e-3,
    "down_fraction": 0.5,
    "cycles": 50,
    "bandwidth_factor": 0.1,
}


def _straggler_grid(spec: ClusterSpec) -> list:
    layer = dataclasses.replace(MODEL, num_layers=1, layer_only=True)
    rows = []
    for sched in FULL["schedulers"]:
        for a2a in FULL["a2a"]:
            for slowdown in FULL["slowdowns"]:
                # slowdown 1.0 is the healthy baseline: no plan at all,
                # exercising the documented zero-faults == historical
                # path guarantee.
                faults = (
                    None
                    if slowdown == 1.0
                    else single_straggler(rank=0, slowdown=slowdown)
                )
                report = ModelExecutor(
                    spec,
                    get_a2a(a2a),
                    get_compressor("zfp"),
                    get_scheduler(sched),
                    partitions=2,
                    faults=faults,
                ).run(layer)
                rows.append({
                    "scheduler": sched,
                    "a2a": a2a,
                    "slowdown": slowdown,
                    "makespan_s": report.makespan,
                })
    healthy = {
        (r["scheduler"], r["a2a"]): r["makespan_s"]
        for r in rows
        if r["slowdown"] == 1.0
    }
    for r in rows:
        r["degradation"] = (
            r["makespan_s"] / healthy[(r["scheduler"], r["a2a"])]
        )
    return rows


def _flapping_study(spec: ClusterSpec) -> dict:
    plan = FaultPlan(seed=0, links=flapping_link(**FLAPPING))
    out = {"config": dict(FLAPPING), "by_algo": {}}
    for name in FULL["a2a"]:
        clean = measure_a2a(get_a2a(name), spec, A2A_BYTES)
        hurt = measure_a2a(get_a2a(name), spec, A2A_BYTES, faults=plan)
        out["by_algo"][name] = {
            "healthy_s": clean.seconds,
            "flapping_s": hurt.seconds,
            "slowdown": hurt.seconds / clean.seconds,
        }
    return out


def _transient_study(spec: ClusterSpec) -> dict:
    plan = FaultPlan(
        seed=TRANSIENT["seed"],
        transient=TransientFaults(
            probability=TRANSIENT["probability"],
            max_retries=TRANSIENT["max_retries"],
            backoff_s=TRANSIENT["backoff_s"],
            backoff_multiplier=TRANSIENT["backoff_multiplier"],
        ),
    )
    out = {"config": dict(TRANSIENT), "by_algo": {}}
    for name in FULL["transient_algos"]:
        clean = measure_a2a(get_a2a(name), spec, A2A_BYTES)
        hurt = measure_a2a(get_a2a(name), spec, A2A_BYTES, faults=plan)
        out["by_algo"][name] = {
            "healthy_s": clean.seconds,
            "faulted_s": hurt.seconds,
            "slowdown": hurt.seconds / clean.seconds,
            "failures": hurt.stats["transient_failures"],
            "retries": hurt.stats["transient_retries"],
        }
    return out


def run_faults_study(spec: ClusterSpec) -> dict:
    """The whole study on ``spec``: straggler grid, link faults,
    acceptance figures."""
    stragglers = _straggler_grid(spec)
    flapping = _flapping_study(spec)
    transient = _transient_study(spec)
    degradations = [r["degradation"] for r in stragglers]
    monotone = all(
        a["makespan_s"] <= b["makespan_s"] + 1e-12
        for a, b in zip(stragglers, stragglers[1:])
        if (a["scheduler"], a["a2a"]) == (b["scheduler"], b["a2a"])
    )
    return {
        "bench": "ablation_faults",
        "mode": "full",
        "model": f"ct_moe({MODEL.num_layers})",
        "straggler_rank": 0,
        "stragglers": stragglers,
        "flapping_link": flapping,
        "transient": transient,
        "acceptance": {
            "degradation_monotone_in_slowdown": monotone,
            "max_degradation": max(degradations),
            "min_degradation": min(degradations),
            "transient_retries_observed": min(
                a["retries"] for a in transient["by_algo"].values()
            ),
        },
    }


def failed_checks(report: dict) -> List[str]:
    """Names of the acceptance checks ``report`` fails (empty: all hold).

    A straggler can only hurt, and never by more than its own slowdown
    factor (communication time is unscaled); retries must actually
    happen; a flapping link must slow every algorithm.
    """
    acc = report["acceptance"]
    checks = {
        "degradation_monotone_in_slowdown": (
            acc["degradation_monotone_in_slowdown"]
        ),
        "min_degradation": acc["min_degradation"] >= 1.0 - 1e-9,
        "max_degradation": acc["max_degradation"] <= max(
            r["slowdown"] for r in report["stragglers"]
        ) + 1e-9,
        "transient_retries_observed": acc["transient_retries_observed"] > 0,
    }
    for name, row in sorted(report["flapping_link"]["by_algo"].items()):
        checks[f"flapping_link.{name}.slowdown"] = row["slowdown"] > 1.0
    return [name for name, ok in checks.items() if not ok]


def render(report: dict) -> str:
    """The study's text block."""
    lines = [
        f"model {report['model']}, straggler on rank "
        f"{report['straggler_rank']}  ({report['mode']})",
        "",
        f"{'scheduler':<16} {'a2a':<6} {'slowdown':>9} {'makespan':>10} "
        f"{'degrade':>8}",
    ]
    for r in report["stragglers"]:
        lines.append(
            f"{r['scheduler']:<16} {r['a2a']:<6} {r['slowdown']:>8.1f}x "
            f"{r['makespan_s'] * 1e3:>8.2f}ms {r['degradation']:>7.2f}x"
        )
    lines.append("")
    lines.append(
        "flapping inter-node link "
        f"(node {report['flapping_link']['config']['node']}, "
        f"{report['flapping_link']['config']['bandwidth_factor'] * 100:.0f}%"
        " bandwidth half of every period):"
    )
    for name, row in sorted(report["flapping_link"]["by_algo"].items()):
        lines.append(
            f"  {name:<6} {row['healthy_s'] * 1e3:>8.2f}ms -> "
            f"{row['flapping_s'] * 1e3:>8.2f}ms ({row['slowdown']:.2f}x)"
        )
    t = report["transient"]
    lines.append(
        f"transient failures (p={t['config']['probability']}, "
        f"seed={t['config']['seed']}, retry budget "
        f"{t['config']['max_retries']}):"
    )
    for name, row in sorted(t["by_algo"].items()):
        lines.append(
            f"  {name:<6} {row['healthy_s'] * 1e3:>8.2f}ms -> "
            f"{row['faulted_s'] * 1e3:>8.2f}ms ({row['slowdown']:.2f}x, "
            f"{row['failures']:.0f} failures, {row['retries']:.0f} retries)"
        )
    return "\n".join(lines)
