"""The elastic-recovery study: kill → recover → scale-up.

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

On the **timing substrate** node 0 dies; the study prices the re-shard
onto the survivors and the rebalance onto a replacement node (bytes
per GPU, :func:`~repro.faults.recovery.price_reshard` time).  Step
time cannot say whether to recover: with k = 1 a degraded and a
recovered step cost the same.  Model quality can, and
:func:`run_quality_study` measures it (Table 6's LM loses a third of
its experts mid-run and continues healthy, degraded, restored or
re-initialized, over eight seeds; ~1.5 min on two cores, so it has a
bench sidecar and no CLI command).

Everything is seeded or simulated-time, so both reports are
bit-for-bit deterministic on one BLAS kernel.
"""

from __future__ import annotations

import copy
import dataclasses
import multiprocessing
import tempfile
from itertools import islice
from pathlib import Path
from typing import Dict, List

import numpy as np

from ..cluster.topology import ClusterSpec
from ..faults.recovery import RecoveryController, price_reshard
from ..metrics.perplexity import evaluate_lm_perplexity
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
from ..nn.optim import Adam
from ..nn.serialization import load_checkpoint, save_checkpoint
from ..training.convergence import _lm_model, default_lm_corpus
from ..training.trainer import _train
from .sweep import default_processes

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
    """Price the re-shards after node 0 of ``spec`` dies, and back."""
    if spec.num_nodes < 2:
        raise ValueError(
            f"losing a node of {spec.name!r} leaves no survivors "
            f"(num_nodes={spec.num_nodes})"
        )
    survivors = dataclasses.replace(spec, num_nodes=spec.num_nodes - 1)
    model = ct_moe()

    bytes_per_expert = expert_param_bytes(
        model.model_dim, model.hidden_dim
    )

    def reshard(old, new, cluster):
        moves = reshard_moves(old, new)
        traffic = reshard_traffic(moves, bytes_per_expert, new.num_workers)
        return moves, traffic, price_reshard(cluster, traffic["per_gpu_bytes"])

    # Expert placement over every rank; node 0 takes its ranks down,
    # and the exchange runs on the surviving cluster.
    old = ExpertPlacement.contiguous(model.num_experts, spec.world_size)
    dead = frozenset(range(spec.gpus_per_node))
    survivors_pl = old.with_workers_removed(dead)
    moves, traffic, reshard_s = reshard(old, survivors_pl, survivors)
    # A replacement node arrives: rebalance back to the contiguous
    # full-cluster placement.
    restored = ExpertPlacement.contiguous(
        model.num_experts, spec.world_size, version=survivors_pl.version + 1
    )
    back_moves, back, back_s = reshard(survivors_pl, restored, spec)
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
        "rebalance": {
            "moves": len(back_moves),
            "per_gpu_bytes": int(back["per_gpu_bytes"]),
            "reshard_s": back_s,
        },
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
        },
    }


def failed_checks(report: dict) -> List[str]:
    """Names of the acceptance flags ``report`` fails (empty: all hold)."""
    return [name for name, ok in report["acceptance"].items() if not ok]


def render(report: dict, spec: ClusterSpec) -> str:
    """The study's text block; ``spec`` is the cluster it ran on."""
    par = report["parity"]
    pri = report["pricing"]
    back = pri["rebalance"]
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
        f"  replacement node: rebalance back ({back['moves']} experts) "
        f"{back['per_gpu_bytes']:,} B/GPU -> "
        f"{back['reshard_s'] * 1e3:.3f} ms on the {spec.num_nodes} nodes",
    ]
    return "\n".join(lines)


# -- the quality study ----------------------------------------------------

#: Fixed before the study first ran: the seeds, Table 6's LM schedule
#: (:func:`~repro.training.convergence.run_lm_convergence`), the step
#: whose checkpoint the restore branch reads, and the kill: after
#: ``KILL_STEP`` the experts one of three workers would host (E = 6)
#: die in every MoE layer.
SEEDS = tuple(range(8))
STEPS, BATCH_SIZE, LR, EVAL_BATCHES = 450, 16, 3e-3, 32
CHECKPOINT_STEP, KILL_STEP, KILLED_EXPERTS = 175, 225, (2, 3)
BRANCHES = ("healthy", "degraded", "restore", "reinit")


def _quality_run(seed: int) -> Dict[str, float]:
    """One seed: train, kill, fork four ways; final perplexity per branch."""
    corpus = default_lm_corpus()
    model = _lm_model("MoE", corpus, seed)
    optimizer = Adam(model.parameters(), lr=LR)
    stream = corpus.batches(BATCH_SIZE, STEPS, seed=seed)
    _train(model, optimizer, islice(stream, CHECKPOINT_STEP), model.loss)
    with tempfile.TemporaryDirectory(prefix="repro-quality-") as tmp:
        save_checkpoint(model, Path(tmp) / "checkpoint.npz")
        saved = load_checkpoint(Path(tmp) / "checkpoint.npz")
    until_kill = islice(stream, KILL_STEP - CHECKPOINT_STEP)
    _train(model, optimizer, until_kill, model.loss)
    rest = list(stream)
    perplexity = {}
    for branch in BRANCHES:
        # One copy keeps the optimizer's moments tied to the weights.
        fork, fork_optimizer = copy.deepcopy((model, optimizer))
        names = {id(p): name for name, p in fork.named_parameters()}
        layers = [m for m in fork.modules() if isinstance(m, MoELayer)]
        for i, layer in enumerate(layers):
            bank = names[id(layer.experts.w1)][: -len("w1")]
            for e in KILLED_EXPERTS:
                if branch == "restore":
                    layer.experts.load_expert_slice(e, *(
                        saved[bank + p][e] for p in ("w1", "b1", "w2", "b2")
                    ))
                elif branch == "reinit":  # RecoveryController's key + layer
                    rng = np.random.default_rng((seed, 1, i, e))
                    layer.experts.reinit_expert(e, rng)
            if branch == "degraded":
                layer.set_dead_experts(KILLED_EXPERTS)
        _train(fork, fork_optimizer, rest, fork.loss)
        # Scored as :func:`~repro.training.trainer.train_lm` scores.
        perplexity[branch] = evaluate_lm_perplexity(
            fork,
            corpus.batches(BATCH_SIZE, EVAL_BATCHES, seed=seed + 10_000),
        )
    return perplexity


def _summarize(runs: List[Dict[str, float]]) -> dict:
    """Per-branch quartiles; restore and re-init each beat degraded when
    the median gap exceeds the larger of the two interquartile ranges."""
    ppl = {b: [run[b] for run in runs] for b in BRANCHES}
    quartiles = {
        b: [float(q) for q in np.percentile(v, [25, 50, 75])]
        for b, v in ppl.items()
    }

    def beats_degraded(b: str) -> bool:
        (d1, dm, d3), (b1, bm, b3) = quartiles["degraded"], quartiles[b]
        return bool(dm - bm > max(d3 - d1, b3 - b1))

    restore_minus_reinit = np.subtract(ppl["restore"], ppl["reinit"])
    return {
        "perplexity": ppl,
        "quartiles": quartiles,
        "restore_minus_reinit_median": float(np.median(restore_minus_reinit)),
        "restore_lower_seeds": int((restore_minus_reinit < 0).sum()),
        "acceptance": {
            f"{b}_beats_degraded": beats_degraded(b)
            for b in ("restore", "reinit")
        },
    }


def run_quality_study() -> dict:
    """Degraded vs restored training at every seed of :data:`SEEDS`.

    Seeds run in a process pool; results keep seed order and equal a
    serial run's, since each seed's run depends on nothing else.
    """
    with multiprocessing.Pool(min(len(SEEDS), default_processes())) as pool:
        runs = pool.map(_quality_run, SEEDS)
    return {"seeds": list(SEEDS), **_summarize(runs)}


def render_quality(report: dict) -> str:
    """The quality study's text block (:func:`failed_checks` fits it)."""
    ppl = report["perplexity"]
    lines = [
        f"Table 6 LM, {STEPS} steps: experts {list(KILLED_EXPERTS)} die "
        f"in every MoE layer after step {KILL_STEP}; restore reads the "
        f"step-{CHECKPOINT_STEP} checkpoint",
        "final perplexity",
        "  seed" + "".join(f"{b:>10}" for b in BRANCHES),
    ]
    for i, seed in enumerate(report["seeds"]):
        row = "".join(f"{ppl[b][i]:>10.5f}" for b in BRANCHES)
        lines.append(f"  {seed:>4}{row}")
    for b, (q1, median, q3) in report["quartiles"].items():
        lines.append(f"  {b:<10} median {median:.3f} [{q1:.3f}, {q3:.3f}]")
    median = report["restore_minus_reinit_median"]
    lines.append(
        f"  restore - reinit: median {median:+.3f}, restore lower at "
        f"{report['restore_lower_seeds']}/{len(report['seeds'])} seeds "
        "(not checked)"
    )
    for name, ok in report["acceptance"].items():
        lines.append(f"  {name:<40} {ok}")
    return "\n".join(lines)
