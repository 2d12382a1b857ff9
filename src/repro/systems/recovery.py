"""The elastic-recovery study: kill → recover → scale-up, priced.

One scenario, built once and shared by
``benchmarks/bench_ablation_recovery.py`` (which saves the rendered
text and the report as its sidecar) and ``python -m repro reshard``
(which prints the same text for any ``--cluster`` preset).

On the **numerical substrate** a 4-worker expert-parallel group loses a
worker, the survivors adopt its experts
(:class:`~repro.faults.recovery.RecoveryController`), parameters are
re-instantiated from a crash-safe checkpoint (bit-exact) or by seeded
re-init (deterministic), and a fifth worker is then admitted.  The
study records the parity *facts* the recovery guarantee promises: the
recovered forward is bit-identical to a freshly built group on the
same placement, checkpoint restore reproduces the pre-kill output
exactly, and re-init replays identically run after run.

On the **timing substrate** the cluster loses node 0.  The choice the
controller prices: keep training *degraded* on the surviving nodes
without the lost experts, or pay one re-shard all-to-all (the adopted
experts' parameter slices) and train the *full* model on the
survivors.  Per step the degraded model is cheaper — it does less
work — so the time-only recommendation is "continue"; the study
records that honestly (the reason to reshard is model quality, which
no step-time metric sees).  When a replacement node arrives the same
hook prices the rebalance back to the full cluster, where the time
saving is real and the breakeven horizon finite.

Everything is seeded or simulated-time, so the report is bit-for-bit
deterministic.
"""

from __future__ import annotations

import dataclasses
import tempfile
from pathlib import Path
from typing import List

import numpy as np

from ..cluster.topology import ClusterSpec
from ..collectives import get_a2a
from ..compression import get_compressor
from ..core import ModelExecutor, get_scheduler
from ..faults.recovery import (
    RecoveryController,
    price_reshard,
    reshard_vs_degraded,
)
from ..models import ct_moe
from ..moe import MoELayer
from ..moe.parallel import ExpertParallelGroup
from ..moe.placement import (
    ExpertPlacement,
    expert_param_bytes,
    reshard_moves,
    reshard_traffic,
)
from ..nn import Tensor
from ..nn.serialization import save_checkpoint

ALGO = "pipe"
SCHEDULER = "optsche"
#: Planning horizons (steps) of the reshard-vs-continue decision.
HORIZONS = (10, 100, 1000)

#: Numerical-substrate scenario (kept small: parity is exact at any
#: size, so more tokens buy nothing).
NUMERIC = {
    "num_workers": 4,
    "num_experts": 8,
    "model_dim": 32,
    "hidden_dim": 32,
    "kill_worker": 1,
    "seed": 0,
    "tokens": 64,
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


def _parity_study() -> dict:
    """Kill → recover → scale-up on real numerics; record parity facts."""
    rng = np.random.default_rng(NUMERIC["seed"] + 1)
    tokens = rng.standard_normal(
        (NUMERIC["tokens"], NUMERIC["model_dim"])
    ).astype(np.float32)
    shards = list(np.split(tokens, NUMERIC["num_workers"]))
    kill = NUMERIC["kill_worker"]

    # -- checkpoint strategy ----------------------------------------------
    layer = _make_layer()
    group = ExpertParallelGroup(layer, NUMERIC["num_workers"])
    single = layer(Tensor(tokens)).data.copy()
    healthy = group.forward_concatenated(shards)
    with tempfile.TemporaryDirectory(prefix="repro-recovery-") as tmp:
        ck = Path(tmp) / "healthy.npz"
        save_checkpoint(layer, ck)
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
        group_r = ExpertParallelGroup(_make_layer(), NUMERIC["num_workers"])
        group_r.set_dead_workers({kill})
        RecoveryController(group_r, reinit_seed=7).recover()
        return group_r.forward_concatenated(shards)

    reinit_a, reinit_b = reinit_run(), reinit_run()

    return {
        "scenario": dict(NUMERIC),
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


def _pricing_study(spec: ClusterSpec) -> dict:
    """Price reshard-vs-degraded after losing node 0 of ``spec``."""
    if spec.num_nodes < 2:
        raise ValueError(
            f"losing a node of {spec.name!r} leaves no survivors "
            f"(num_nodes={spec.num_nodes})"
        )
    survivors = dataclasses.replace(spec, num_nodes=spec.num_nodes - 1)
    model = ct_moe()

    # Expert placement over every rank; node 0 takes its ranks down.
    old = ExpertPlacement.contiguous(model.num_experts, spec.world_size)
    dead = frozenset(range(spec.gpus_per_node))
    survivors_pl = old.with_workers_removed(dead)
    moves = reshard_moves(old, survivors_pl)
    bytes_per_expert = expert_param_bytes(
        model.model_dim, model.hidden_dim
    )
    traffic = reshard_traffic(
        moves, bytes_per_expert, survivors_pl.num_workers
    )
    # The exchange runs on the surviving cluster.
    reshard_s = price_reshard(survivors, traffic["per_gpu_bytes"])

    def makespan(cluster, m):
        layer = dataclasses.replace(m, num_layers=1, layer_only=True)
        return ModelExecutor(
            cluster,
            get_a2a(ALGO),
            get_compressor("zfp"),
            get_scheduler(SCHEDULER),
            partitions=2,
        ).run(layer).makespan

    # The job's global batch is fixed (strong scaling): the survivors
    # each carry more tokens, so every post-failure step is slower
    # than the healthy one regardless of expert count.
    survivor_batch = -(
        -model.batch_per_gpu * spec.num_nodes // survivors.num_nodes
    )
    degraded_model = dataclasses.replace(
        model,
        name=model.name + "-degraded",
        num_experts=model.num_experts - len(moves),
        batch_per_gpu=survivor_batch,
    )
    recovered_model = dataclasses.replace(
        model,
        name=model.name + "-recovered",
        batch_per_gpu=survivor_batch,
    )
    healthy_s = makespan(spec, model)  # pre-failure reference
    degraded_s = makespan(survivors, degraded_model)  # continue as-is
    recovered_s = makespan(survivors, recovered_model)  # full model

    decisions = [
        dataclasses.asdict(
            reshard_vs_degraded(reshard_s, degraded_s, recovered_s, h)
        )
        for h in HORIZONS
    ]

    # A replacement node arrives: rebalance back to the contiguous
    # full-cluster placement.  Here the per-step saving is real.
    restored = ExpertPlacement.contiguous(
        model.num_experts, spec.world_size, version=survivors_pl.version + 1
    )
    back_moves = reshard_moves(survivors_pl, restored)
    back_traffic = reshard_traffic(
        back_moves, bytes_per_expert, spec.world_size
    )
    back_s = price_reshard(spec, back_traffic["per_gpu_bytes"])
    back = dataclasses.asdict(
        reshard_vs_degraded(back_s, recovered_s, healthy_s, max(HORIZONS))
    )

    return {
        "model": model.name,
        "cluster": spec.name,
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


def run_recovery_study(spec: ClusterSpec) -> dict:
    """The whole study on ``spec``: parity facts, pricing, acceptance."""
    pricing = _pricing_study(spec)  # first: it validates ``spec``
    parity = _parity_study()
    return {
        "bench": "ablation_recovery",
        "mode": "full",
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


def failed_checks(report: dict) -> List[str]:
    """Names of the acceptance flags ``report`` fails (empty: all hold)."""
    return [name for name, ok in report["acceptance"].items() if not ok]


def render(report: dict, spec: ClusterSpec) -> str:
    """The study's text block; ``spec`` is the cluster it ran on."""
    par = report["parity"]
    pri = report["pricing"]
    experts = ct_moe().num_experts
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
        f"{pri['reshard_s'] * 1e3:.3f} ms on the "
        f"{spec.num_nodes - 1} surviving nodes",
        f"  step: healthy {pri['healthy_step_s'] * 1e3:.2f} ms, "
        f"degraded({experts - pri['adopted_experts']}E) "
        f"{pri['degraded_step_s'] * 1e3:.2f} ms, "
        f"recovered({experts}E) {pri['recovered_step_s'] * 1e3:.2f} ms",
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
