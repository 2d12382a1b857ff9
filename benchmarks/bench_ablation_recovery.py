"""Ablation: elastic re-sharding — recover and rebalance vs train degraded.

Exercises the recovery state machine end to end on both substrates.

On the **numerical substrate** a 4-worker expert-parallel group loses a
worker, the survivors adopt its experts
(:class:`~repro.faults.recovery.RecoveryController`), parameters are
re-instantiated from a crash-safe checkpoint (bit-exact) or by seeded
re-init (deterministic), and a fifth worker is then admitted.  The
section records the parity *facts* the recovery guarantee promises:
the recovered forward is bit-identical to a freshly built group on the
same placement, checkpoint restore reproduces the pre-kill output
exactly, and re-init replays identically run after run.

On the **timing substrate** the paper testbed loses node 0 (4 of 32
ranks).  The choice the controller prices: keep training *degraded* on
the 7 surviving nodes with 28 experts, or pay one re-shard all-to-all
(the adopted experts' parameter slices) and train the *full* 32-expert
model on 7 nodes.  Per step the degraded model is cheaper — it does
less work — so the time-only recommendation is "continue"; the bench
records that honestly (the reason to reshard is model quality, which
no step-time metric sees).  When a replacement node arrives the same
hook prices the rebalance back to 8 nodes, where the time saving is
real and the breakeven horizon finite.

Everything is seeded or simulated-time, so the report is bit-for-bit
deterministic (asserted by building it twice).  The ``recovery``
section is merged into the root ``BENCH_faults.json`` artifact —
preserving the fault grid written by ``bench_ablation_faults`` — and
the ``benchmarks/out/ablation_recovery.json`` sidecar joins the CI
drift gate.

Run directly (``--tiny`` for the CI smoke configuration)::

    PYTHONPATH=src python benchmarks/bench_ablation_recovery.py [--tiny]

or via pytest-benchmark like the other benches.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np

from repro.cluster import paper_testbed
from repro.collectives import get_a2a, measure_a2a
from repro.compression import get_compressor
from repro.core import ModelExecutor, get_scheduler
from repro.faults.recovery import RecoveryController, reshard_vs_degraded
from repro.models import ct_moe
from repro.moe import MoELayer
from repro.moe.parallel import ExpertParallelGroup
from repro.moe.placement import (
    ExpertPlacement,
    expert_param_bytes,
    reshard_moves,
    reshard_traffic,
)
from repro.nn.serialization import save_checkpoint

from _util import emit, once

ROOT_JSON = Path(__file__).resolve().parent.parent / "BENCH_faults.json"

FULL = {
    "algo": "pipe",
    "scheduler": "optsche",
    "horizons": [10, 100, 1000],
    "tokens": 64,
}
TINY = {
    "algo": "pipe",
    "scheduler": "optsche",
    "horizons": [100],
    "tokens": 32,
}

#: Numerical-substrate scenario (kept small: parity is exact at any
#: size, so more tokens buy nothing).
NUMERIC = {
    "num_workers": 4,
    "num_experts": 8,
    "model_dim": 32,
    "hidden_dim": 32,
    "kill_worker": 1,
    "seed": 0,
}


def _make_layer() -> MoELayer:
    return MoELayer(
        model_dim=NUMERIC["model_dim"],
        hidden_dim=NUMERIC["hidden_dim"],
        num_experts=NUMERIC["num_experts"],
        rng=np.random.default_rng(NUMERIC["seed"]),
        top_k=2,
        # cf >= E/k: no drops, the precondition for exact parity.
        capacity_factor=NUMERIC["num_experts"] / 2.0,
    ).eval()


def _parity_study(cfg: dict) -> dict:
    """Kill → recover → scale-up on real numerics; record parity facts."""
    tokens_n = cfg["tokens"] - cfg["tokens"] % NUMERIC["num_workers"]
    rng = np.random.default_rng(NUMERIC["seed"] + 1)
    tokens = rng.standard_normal(
        (tokens_n, NUMERIC["model_dim"])
    ).astype(np.float32)
    shards = list(np.split(tokens, NUMERIC["num_workers"]))
    kill = NUMERIC["kill_worker"]

    # -- checkpoint strategy ----------------------------------------------
    layer = _make_layer()
    group = ExpertParallelGroup(layer, NUMERIC["num_workers"])
    from repro.nn import Tensor

    single = layer(Tensor(tokens)).data.copy()
    healthy = group.forward_concatenated(shards)
    with tempfile.TemporaryDirectory(prefix="bench-recovery-") as tmp:
        ck = Path(tmp) / "healthy.npz"
        save_checkpoint(layer, ck, placement=group.placement)
        group.set_dead_workers({kill})
        degraded = group.forward_concatenated(shards)
        ctrl = RecoveryController(group, checkpoint=ck)
        event = ctrl.recover()
        recovered = group.forward_concatenated(shards)
    fresh = ExpertParallelGroup(
        layer, NUMERIC["num_workers"], placement=group.placement
    ).forward_concatenated(shards)
    overlap = ExpertParallelGroup(
        layer,
        NUMERIC["num_workers"],
        pipeline="overlap",
        num_chunks=2,
        placement=group.placement,
    ).forward_concatenated(shards)
    scale_event = ctrl.scale_up()
    grown = group.forward_concatenated(shards + [tokens[:0]])

    # -- re-init strategy (twice, to record determinism) ------------------
    def reinit_run():
        layer_r = _make_layer()
        group_r = ExpertParallelGroup(layer_r, NUMERIC["num_workers"])
        group_r.set_dead_workers({kill})
        RecoveryController(group_r, reinit_seed=7).recover()
        return group_r.forward_concatenated(shards)

    reinit_a, reinit_b = reinit_run(), reinit_run()

    return {
        "scenario": dict(NUMERIC, tokens=tokens_n),
        "kill_worker": kill,
        "lost_experts": [int(e) for e in event.adopted_experts],
        "moves": [[int(v) for v in m] for m in event.moves],
        "placement_version": [event.old_version, event.new_version],
        "reshard_bytes_per_gpu": int(event.reshard_per_gpu_bytes),
        "scale_up_moves": [[int(v) for v in m] for m in scale_event.moves],
        "checks": {
            # Zero-fault guarantee: the placement-threaded group still
            # matches the single-process layer bit for bit.
            "group_matches_single_process": bool(
                np.array_equal(healthy, single)
            ),
            "degraded_differs_from_healthy": bool(
                not np.array_equal(degraded, healthy)
            ),
            # The recovery parity guarantee, three ways.
            "recovered_matches_fresh_group": bool(
                np.array_equal(recovered, fresh)
            ),
            "recovered_matches_overlap_pipeline": bool(
                np.array_equal(recovered, overlap)
            ),
            "checkpoint_restore_matches_healthy": bool(
                np.array_equal(recovered, healthy)
            ),
            "scale_up_output_unchanged": bool(
                np.array_equal(grown, recovered)
            ),
            "reinit_deterministic": bool(
                np.array_equal(reinit_a, reinit_b)
            ),
            "reinit_differs_from_checkpoint": bool(
                not np.array_equal(reinit_a, recovered)
            ),
        },
    }


def _pricing_study(cfg: dict) -> dict:
    """Price reshard-vs-degraded after losing node 0 of the testbed."""
    model = ct_moe()
    spec8 = paper_testbed(num_nodes=8)
    spec7 = paper_testbed(num_nodes=7)
    gpus = spec8.gpus_per_node

    # Expert placement over the 32 ranks; node 0 takes ranks 0..3 down.
    old = ExpertPlacement.contiguous(model.num_experts, spec8.world_size)
    dead = frozenset(range(gpus))
    survivors_pl = old.with_workers_removed(dead)
    moves = reshard_moves(old, survivors_pl)
    bytes_per_expert = expert_param_bytes(
        model.model_dim, model.hidden_dim
    )
    traffic = reshard_traffic(
        moves, bytes_per_expert, survivors_pl.num_workers
    )
    # The exchange runs on the surviving 7-node cluster.
    reshard_s = measure_a2a(
        get_a2a(cfg["algo"]), spec7, traffic["per_gpu_bytes"]
    ).seconds

    def makespan(spec, m):
        layer = dataclasses.replace(m, num_layers=1, layer_only=True)
        return ModelExecutor(
            spec,
            get_a2a(cfg["algo"]),
            get_compressor("zfp"),
            get_scheduler(cfg["scheduler"]),
            partitions=2,
        ).run(layer).makespan

    # The job's global batch is fixed (strong scaling): the 7
    # survivors each carry 8/7 of the tokens, so every post-failure
    # step is slower than the healthy one regardless of expert count.
    survivor_batch = -(-model.batch_per_gpu * spec8.num_nodes // spec7.num_nodes)
    degraded_model = dataclasses.replace(
        model,
        name=model.name + "-degraded",
        num_experts=model.num_experts - len(dead),
        batch_per_gpu=survivor_batch,
    )
    recovered_model = dataclasses.replace(
        model,
        name=model.name + "-recovered",
        batch_per_gpu=survivor_batch,
    )
    healthy_s = makespan(spec8, model)  # pre-failure reference
    degraded_s = makespan(spec7, degraded_model)  # continue as-is
    recovered_s = makespan(spec7, recovered_model)  # full model, 7 nodes

    decisions = [
        dataclasses.asdict(
            reshard_vs_degraded(reshard_s, degraded_s, recovered_s, h)
        )
        for h in cfg["horizons"]
    ]

    # A replacement node arrives: rebalance back to the contiguous
    # 8-node placement.  Here the per-step saving is real.
    restored = ExpertPlacement.contiguous(
        model.num_experts, spec8.world_size, version=survivors_pl.version + 1
    )
    back_moves = reshard_moves(survivors_pl, restored)
    back_traffic = reshard_traffic(
        back_moves, bytes_per_expert, spec8.world_size
    )
    back_s = measure_a2a(
        get_a2a(cfg["algo"]), spec8, back_traffic["per_gpu_bytes"]
    ).seconds
    back = dataclasses.asdict(
        reshard_vs_degraded(
            back_s, recovered_s, healthy_s, max(cfg["horizons"])
        )
    )

    return {
        "model": model.name,
        "cluster": spec8.name,
        "dead_node": 0,
        "dead_ranks": sorted(dead),
        "adopted_experts": len(moves),
        "bytes_per_expert": int(bytes_per_expert),
        "reshard_total_bytes": int(traffic["total_bytes"]),
        "reshard_per_gpu_bytes": int(traffic["per_gpu_bytes"]),
        "reshard_s": reshard_s,
        "healthy_step_s": healthy_s,
        "degraded_step_s": degraded_s,
        "recovered_step_s": recovered_s,
        "decisions": decisions,
        "scale_back": dict(
            back,
            moves=len(back_moves),
            per_gpu_bytes=int(back_traffic["per_gpu_bytes"]),
        ),
    }


def run_recovery_study(tiny: bool = False) -> dict:
    cfg = TINY if tiny else FULL
    parity = _parity_study(cfg)
    pricing = _pricing_study(cfg)
    return {
        "bench": "ablation_recovery",
        "mode": "tiny" if tiny else "full",
        "parity": parity,
        "pricing": pricing,
        "acceptance": {
            "all_parity_checks_pass": all(parity["checks"].values()),
            "reshard_priced_positive": pricing["reshard_s"] > 0,
            "scale_back_breakeven_finite": (
                pricing["scale_back"]["breakeven_steps"] != float("inf")
            ),
        },
    }


def render(report: dict) -> str:
    par = report["parity"]
    pri = report["pricing"]
    lines = [
        f"numerical parity (E={par['scenario']['num_experts']} "
        f"P={par['scenario']['num_workers']}, kill worker "
        f"{par['kill_worker']}, experts {par['lost_experts']} adopted, "
        f"placement v{par['placement_version'][0]} -> "
        f"v{par['placement_version'][1]})  ({report['mode']})",
    ]
    for name, ok in par["checks"].items():
        lines.append(f"  {name:<40} {ok}")
    lines += [
        "",
        f"pricing: {pri['model']} on {pri['cluster']}, node "
        f"{pri['dead_node']} dies (ranks {pri['dead_ranks']}, "
        f"{pri['adopted_experts']} experts adopted)",
        f"  re-shard A2A: {pri['reshard_per_gpu_bytes']:,} B/GPU -> "
        f"{pri['reshard_s'] * 1e3:.3f} ms on the 7 surviving nodes",
        f"  step: healthy {pri['healthy_step_s'] * 1e3:.2f} ms, "
        f"degraded(28E) {pri['degraded_step_s'] * 1e3:.2f} ms, "
        f"recovered(32E) {pri['recovered_step_s'] * 1e3:.2f} ms",
    ]
    for d in pri["decisions"]:
        be = (
            "inf"
            if d["breakeven_steps"] == float("inf")
            else f"{d['breakeven_steps']:.1f}"
        )
        lines.append(
            f"  horizon {d['horizon_steps']:>5}: continue "
            f"{d['continue_total_s'] * 1e3:9.2f} ms vs reshard "
            f"{d['reshard_total_s'] * 1e3:9.2f} ms (breakeven {be}) "
            f"-> {d['recommendation']}"
        )
    sb = pri["scale_back"]
    lines.append(
        f"  replacement node: rebalance back costs "
        f"{sb['reshard_s'] * 1e3:.3f} ms, saves "
        f"{(sb['continue_step_s'] - sb['reshard_step_s']) * 1e3:.2f} "
        f"ms/step, breakeven {sb['breakeven_steps']:.1f} steps "
        f"-> {sb['recommendation']}"
    )
    return "\n".join(lines)


def _assert_acceptance(report: dict) -> None:
    acc = report["acceptance"]
    assert acc["all_parity_checks_pass"], report["parity"]["checks"]
    assert acc["reshard_priced_positive"]
    assert acc["scale_back_breakeven_finite"]
    # Degraded training does less work per step; the honest time-only
    # call is "continue" — quality is why you reshard anyway.
    pri = report["pricing"]
    assert pri["degraded_step_s"] <= pri["recovered_step_s"] + 1e-12
    # Rebalancing onto the replacement node recovers the healthy rate.
    assert pri["scale_back"]["reshard_step_s"] <= pri["recovered_step_s"]


def write_report(report: dict) -> None:
    emit("ablation_recovery", render(report), data=report)
    # The root fault artifact gains a "recovery" section; everything
    # bench_ablation_faults wrote there is preserved.
    if report["mode"] == "full" and ROOT_JSON.exists():
        merged = json.loads(ROOT_JSON.read_text(encoding="utf-8"))
        merged["recovery"] = report
        ROOT_JSON.write_text(
            json.dumps(merged, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )


def test_recovery_ablation(benchmark):
    report = once(benchmark, run_recovery_study)
    # Seeded numerics + simulated time: the same scenario must
    # reproduce the exact report, byte for byte.
    replay = run_recovery_study()
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
    report = run_recovery_study(tiny=args.tiny)
    replay = run_recovery_study(tiny=args.tiny)
    assert json.dumps(report, sort_keys=True) == json.dumps(
        replay, sort_keys=True
    ), "recovery study is not deterministic"
    write_report(report)
    _assert_acceptance(report)


if __name__ == "__main__":
    main()
