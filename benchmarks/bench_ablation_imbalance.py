"""Ablation: dynamic routing imbalance (paper Section 2.1).

The paper motivates the capacity mechanism with the gate's "extremely
unbalanced" dynamic workloads, and attributes FasterMoE's BERT-Large
OOM to "improper handling of imbalanced tokens".  This bench sweeps a
Zipf routing skew and shows the divide:

* capacity-enforcing systems (Tutel, ScheMoE) are flat — Eq. 1 clips
  the hot expert at f times the balanced load (paying with dropped
  tokens instead);
* the capacity-free FasterMoE policy slows with the hot expert and
  grows its receive buffers until the 11 GB card OOMs.
"""

from __future__ import annotations

from repro.cluster import paper_testbed
from repro.core import RoutingSkew
from repro.models import bert_large_moe, ct_moe
from repro.systems import SweepTask, fastermoe, run_sweep, schemoe, tutel

from _util import emit, once

SKEWS = (0.0, 0.5, 1.0, 1.5, 2.0)


def run_imbalance():
    spec = paper_testbed()
    cfg = ct_moe(12)
    policies = (tutel(), fastermoe(), schemoe())
    tasks = [
        SweepTask(cfg, policy, skew=RoutingSkew(s))
        for s in SKEWS
        for policy in policies
    ]
    # The OOM story: BERT-Large under FasterMoE at realistic skew.
    tasks.append(
        SweepTask(bert_large_moe(), fastermoe(), skew=RoutingSkew(1.0))
    )
    results = run_sweep(tasks, spec)
    bert = results.pop()

    rows = []
    for i, s in enumerate(SKEWS):
        skew = RoutingSkew(s)
        entry = {
            "s": s,
            "hot": skew.hot_expert_ratio(cfg.num_experts),
            "drop": skew.dropped_fraction(
                cfg.num_experts, cfg.capacity_factor
            ),
        }
        for j, policy in enumerate(policies):
            result = results[i * len(policies) + j]
            entry[policy.name] = (
                float("inf") if result.oom else result.total_s
            )
        rows.append(entry)
    return rows, bert


def render(rows, bert) -> str:
    lines = [
        f"{'zipf s':>7} {'hot/avg':>8} {'dropped':>8} "
        f"{'Tutel':>9} {'FasterMoE':>10} {'ScheMoE':>9}"
    ]
    for e in rows:
        def fmt(name):
            v = e[name]
            return "OOM".rjust(9) if v == float("inf") else f"{v * 1e3:8.0f}m"

        lines.append(
            f"{e['s']:>7.1f} {e['hot']:>7.2f}x {e['drop'] * 100:>7.1f}% "
            f"{fmt('Tutel')} {fmt('Faster-MoE'):>10} {fmt('ScheMoE')}"
        )
    lines.append(
        f"\nBERT-Large-MoE under Faster-MoE at skew 1.0: "
        f"{'OOM' if bert.oom else 'fits'} "
        f"({bert.memory_bytes / 2**30:.1f} GiB needed)"
    )
    return "\n".join(lines)


def test_imbalance_ablation(benchmark):
    rows, bert = once(benchmark, run_imbalance)
    emit("ablation_imbalance", render(rows, bert))
    # Capacity systems are flat across the sweep.
    for name in ("Tutel", "ScheMoE"):
        values = [e[name] for e in rows]
        assert max(values) / min(values) < 1.01
    # FasterMoE degrades monotonically.
    fm = [e["Faster-MoE"] for e in rows]
    finite = [v for v in fm if v != float("inf")]
    assert finite == sorted(finite)
    assert finite[-1] > finite[0] * 1.05
    # ...and the BERT-Large + skew combination is (still) OOM.
    assert bert.oom
