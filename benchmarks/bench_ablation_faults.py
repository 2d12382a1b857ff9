"""Ablation: schedules and A2A algorithms under injected faults.

Sweeps a straggler GPU (rank 0, compute slowdown 1x..4x) across every
scheduling policy x A2A algorithm combination and executes the CT-MoE
layer pass on the faulted event-level cluster.  The schedule is always
planned against the *healthy* profile — the scheduler does not know
about the straggler — so the sweep measures how gracefully each
policy's overlap absorbs a slow GPU it did not plan for.  Two
communication-fault studies ride along: a flapping inter-node link
(periodic bandwidth collapse in the alpha-beta model) and transient
transfer failures with seeded retry/backoff.

Everything runs in simulated time, so the output is bit-for-bit
deterministic: the same :class:`~repro.faults.FaultPlan` seed must
yield a byte-identical ``BENCH_faults.json`` on every machine and
every rerun (asserted below by building the report twice).  The root
artifact and the ``benchmarks/out/ablation_faults.json`` sidecar are
both part of the deterministic drift gate in CI.

Run directly (``--tiny`` for the CI smoke configuration, which prints
and saves nothing)::

    PYTHONPATH=src python benchmarks/bench_ablation_faults.py [--tiny]

or via pytest-benchmark like the other benches.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
from pathlib import Path

from repro.cluster import paper_testbed
from repro.collectives import get_a2a, measure_a2a
from repro.compression import get_compressor
from repro.core import ModelExecutor, get_scheduler
from repro.faults import FaultPlan, TransientFaults, flapping_link, single_straggler
from repro.models import ct_moe

from _util import emit, once

ROOT_JSON = Path(__file__).resolve().parent.parent / "BENCH_faults.json"

FULL = {
    "slowdowns": [1.0, 1.5, 2.0, 4.0],
    "schedulers": ["sequential", "chunk-pipeline", "optsche"],
    "a2a": ["nccl", "2dh", "pipe"],
    "transient_algos": ["nccl", "pipe"],
}
TINY = {
    "slowdowns": [1.0, 2.0],
    "schedulers": ["optsche"],
    "a2a": ["pipe"],
    "transient_algos": ["pipe"],
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


def _straggler_grid(cfg: dict, spec) -> list:
    layer = dataclasses.replace(MODEL, num_layers=1, layer_only=True)
    rows = []
    for sched in cfg["schedulers"]:
        for a2a in cfg["a2a"]:
            for slowdown in cfg["slowdowns"]:
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


def _flapping_study(cfg: dict, spec) -> dict:
    plan = FaultPlan(seed=0, links=flapping_link(**FLAPPING))
    out = {"config": dict(FLAPPING), "by_algo": {}}
    for name in cfg["a2a"]:
        clean = measure_a2a(get_a2a(name), spec, A2A_BYTES)
        hurt = measure_a2a(get_a2a(name), spec, A2A_BYTES, faults=plan)
        out["by_algo"][name] = {
            "healthy_s": clean.seconds,
            "flapping_s": hurt.seconds,
            "slowdown": hurt.seconds / clean.seconds,
        }
    return out


def _transient_study(cfg: dict, spec) -> dict:
    plan = FaultPlan(
        seed=TRANSIENT["seed"],
        transient=TransientFaults(
            probability=TRANSIENT["probability"],
            link="any",
            max_retries=TRANSIENT["max_retries"],
            backoff_s=TRANSIENT["backoff_s"],
            backoff_multiplier=TRANSIENT["backoff_multiplier"],
        ),
    )
    out = {"config": dict(TRANSIENT), "by_algo": {}}
    for name in cfg["transient_algos"]:
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


def run_faults_study(tiny: bool = False) -> dict:
    cfg = TINY if tiny else FULL
    spec = paper_testbed()
    stragglers = _straggler_grid(cfg, spec)
    flapping = _flapping_study(cfg, spec)
    transient = _transient_study(cfg, spec)
    degradations = [r["degradation"] for r in stragglers]
    monotone = all(
        a["makespan_s"] <= b["makespan_s"] + 1e-12
        for a, b in zip(stragglers, stragglers[1:])
        if (a["scheduler"], a["a2a"]) == (b["scheduler"], b["a2a"])
    )
    return {
        "bench": "ablation_faults",
        "mode": "tiny" if tiny else "full",
        "model": f"ct_moe({MODEL.num_layers})",
        "straggler_rank": 0,
        "stragglers": stragglers,
        "flapping_link": flapping,
        "transient": transient,
        "acceptance": {
            # A straggler can only hurt, and never by more than its own
            # slowdown factor (communication time is unscaled).
            "degradation_monotone_in_slowdown": monotone,
            "max_degradation": max(degradations),
            "min_degradation": min(degradations),
            "transient_retries_observed": min(
                a["retries"] for a in transient["by_algo"].values()
            ),
        },
    }


def render(report: dict) -> str:
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


def _assert_acceptance(report: dict) -> None:
    acc = report["acceptance"]
    assert acc["degradation_monotone_in_slowdown"]
    assert acc["min_degradation"] >= 1.0 - 1e-9
    assert acc["max_degradation"] <= max(
        r["slowdown"] for r in report["stragglers"]
    ) + 1e-9
    assert acc["transient_retries_observed"] > 0
    for row in report["flapping_link"]["by_algo"].values():
        assert row["slowdown"] > 1.0


def write_report(report: dict) -> None:
    # Outputs track the full grid only — a --tiny smoke run must not
    # clobber the recorded numbers.
    full = report["mode"] == "full"
    emit("ablation_faults", render(report), data=report, save=full)
    if full:
        merged = dict(report)
        if ROOT_JSON.exists():
            # bench_ablation_recovery owns the "recovery" section of the
            # root artifact; rewriting the fault grid must not drop it.
            prior = json.loads(ROOT_JSON.read_text(encoding="utf-8"))
            if "recovery" in prior:
                merged["recovery"] = prior["recovery"]
        ROOT_JSON.write_text(
            json.dumps(merged, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )


def test_faults_ablation(benchmark):
    report = once(benchmark, run_faults_study)
    # Simulated time has no wall clock in it: the same fault plan must
    # reproduce the exact report, byte for byte.
    replay = run_faults_study()
    assert json.dumps(report, sort_keys=True) == json.dumps(
        replay, sort_keys=True
    )
    write_report(report)
    _assert_acceptance(report)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="smoke configuration for CI (seconds, not minutes)",
    )
    args = parser.parse_args()
    report = run_faults_study(tiny=args.tiny)
    replay = run_faults_study(tiny=args.tiny)
    assert json.dumps(report, sort_keys=True) == json.dumps(
        replay, sort_keys=True
    ), "fault injection is not deterministic"
    write_report(report)
    _assert_acceptance(report)


if __name__ == "__main__":
    main()
