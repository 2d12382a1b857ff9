"""Hot-path micro-benchmark: the production path against the reference.

Times the MoE numerical hot path — gating, dispatch, combine, expert
execution, and a full training step (forward + backward) — comparing
the dense reference against the sparse production path:

* dispatch + combine: ``dense`` GShard einsums over one-hot (T, E, C)
  masks (``O(T * E * C * M)`` work) vs the capacity-free grouped pair
  (:func:`~repro.moe.dispatch.dispatch_grouped` /
  :func:`~repro.moe.dispatch.combine_grouped`, ``O(T * k * M)`` work);
* capacity-freedom: the grouped routed step (sort the flat rows by
  expert, segment-matmul, combine from the flat rows — no (E, C, M)
  buffer) swept across capacity factors 1..8 — its step time must
  stay ~flat.

Both the top-k and the expert-choice gate are timed — the latter
emits the flat expert-major sparse form.  The training-step row
compounds the levers: the dense reference layer (einsums around the
per-expert loop) against the sparse production layer.

The ``overlap`` section sweeps the chunked task-graph executor
(``pipeline="overlap"``) against the sequential schedule across
partition degrees r, with the zfp codec and the 1 Gb/s wire-time
model enabled — the ScheMoE Figure-9-style sync-vs-overlap
comparison, bit-identical outputs asserted before timing.

Emits a machine-readable ``BENCH_hotpath.json`` at the repository
root (plus the usual ``benchmarks/out/`` block) so the perf
trajectory of the hot path is tracked PR over PR.

Run directly (``--tiny`` for the CI smoke configuration)::

    PYTHONPATH=src python benchmarks/bench_hotpath.py [--tiny]

or via pytest-benchmark like the other benches.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.moe import (
    Experts,
    MoELayer,
    TopKGate,
    combine,
    combine_grouped,
    dispatch,
    dispatch_grouped,
)
from repro.moe.gating_ec import ExpertChoiceGate
from repro.nn import Tensor

from _util import emit, once

ROOT_JSON = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"

#: The acceptance configuration for dispatch+combine (T, E, k, M).
FULL = {"tokens": 4096, "experts": 32, "top_k": 2, "model_dim": 1024}
#: Table-6-style full-training-step layer (kept smaller so the dense
#: reference finishes quickly even on one core).
FULL_STEP = {
    "tokens": 1024,
    "experts": 16,
    "top_k": 2,
    "model_dim": 256,
    "hidden_dim": 512,
}
#: Capacity-factor sweep of the grouped routed step.  At cf=4.0 a
#: capacity buffer would be only ~25% occupied; the capacity-free
#: grouped path touches the N routed rows only, so its step time must
#: stay ~flat as cf grows.
FULL_GROUPED = {
    "tokens": 4096,
    "experts": 32,
    "top_k": 2,
    "model_dim": 1024,
    "hidden_dim": 512,
    "capacity_factors": [1.0, 2.0, 4.0, 8.0],
}
#: Sync-vs-overlap acceptance configuration.  One core cannot overlap
#: two CPU-bound threads, so compute/compute overlap is off the table
#: here; what the pipeline hides is *wire time* — the link-occupancy
#: model (`link_bandwidth`) sleeps for the cross-worker bytes each A2A
#: ships, exactly the resource ScheMoE hides behind expert GEMMs.  At
#: 1 Gb/s the A2A share of a step lands in the paper's Table-1 range
#: (30-60%), scaled to this substrate's ~50 GFLOP/s GEMM throughput.
FULL_OVERLAP = {
    "tokens": 4096,
    "experts": 32,
    "top_k": 2,
    "model_dim": 1024,
    "hidden_dim": 512,
    "capacity_factor": 2.0,
    "workers": 4,
    "compressor": "zfp",
    "link_gbps": 1.0,
    "num_chunks_sweep": [1, 2, 4, 8],
    "headline_chunks": 4,
}
TINY = {"tokens": 64, "experts": 4, "top_k": 2, "model_dim": 16}
TINY_STEP = {
    "tokens": 64,
    "experts": 4,
    "top_k": 2,
    "model_dim": 16,
    "hidden_dim": 32,
}
TINY_GROUPED = {
    "tokens": 64,
    "experts": 4,
    "top_k": 2,
    "model_dim": 16,
    "hidden_dim": 32,
    "capacity_factors": [1.0, 4.0],
}
TINY_OVERLAP = {
    "tokens": 64,
    "experts": 4,
    "top_k": 2,
    "model_dim": 16,
    "hidden_dim": 32,
    "capacity_factor": 2.0,
    "workers": 2,
    "compressor": "zfp",
    "link_gbps": 1.0,
    "num_chunks_sweep": [1, 2],
    "headline_chunks": 2,
}


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_routing(cfg: dict, repeats: int) -> dict:
    """Gating / dispatch / combine timings in both modes.

    The ``sparse`` side is the production pair
    (:func:`dispatch_grouped` / :func:`combine_grouped`, reusing the
    gate's cached routing plan exactly as the layer does).
    """
    tokens, experts = cfg["tokens"], cfg["experts"]
    top_k, model_dim = cfg["top_k"], cfg["model_dim"]
    rng = np.random.default_rng(0)
    gate = TopKGate(model_dim, experts, rng, top_k=top_k)
    x = Tensor(
        rng.standard_normal((tokens, model_dim)).astype(np.float32),
        requires_grad=True,
    )

    gating_sparse = _best_of(lambda: gate(x.detach()), repeats)
    out = gate(x.detach())

    def densify():
        fresh = gate(x.detach())
        fresh.dispatch_mask
        fresh.combine_weights
    gating_dense = _best_of(densify, repeats)

    mask = out.dispatch_mask
    weights = out.combine_weights.detach()
    gate_weights = out.gate_weights.detach()
    seed = np.ones((tokens, model_dim), dtype=np.float32)

    def dense_roundtrip():
        x.zero_grad()
        routed = dispatch(x, mask)
        merged = combine(routed, weights)
        merged.backward(seed)

    def sparse_roundtrip():
        x.zero_grad()
        rows, routing = dispatch_grouped(
            x, out.expert_indices, out.slot_indices, experts,
            plan=out.plan,
        )
        combine_grouped(rows, routing, gate_weights, tokens).backward(seed)

    dense_dc = _best_of(dense_roundtrip, repeats)
    sparse_dc = _best_of(sparse_roundtrip, repeats)
    return {
        "config": dict(cfg, capacity=out.capacity),
        "gating": {"dense_s": gating_dense, "sparse_s": gating_sparse},
        "dispatch_combine_fwd_bwd": {
            "dense_s": dense_dc,
            "sparse_s": sparse_dc,
            "speedup": dense_dc / sparse_dc,
        },
    }


def bench_routing_ec(cfg: dict, repeats: int) -> dict:
    """Expert-choice dispatch/combine timings in both modes.

    Same harness as :func:`bench_routing`, but the gate emits the
    *flat* sparse routing form (expert-major assignments).
    """
    tokens, experts = cfg["tokens"], cfg["experts"]
    top_k, model_dim = cfg["top_k"], cfg["model_dim"]
    rng = np.random.default_rng(0)
    gate = ExpertChoiceGate(model_dim, experts, rng, top_k=top_k)
    x = Tensor(
        rng.standard_normal((tokens, model_dim)).astype(np.float32),
        requires_grad=True,
    )

    gating_sparse = _best_of(lambda: gate(x.detach()), repeats)
    out = gate(x.detach())

    def densify():
        fresh = gate(x.detach())
        fresh.dispatch_mask
        fresh.combine_weights
    gating_dense = _best_of(densify, repeats)

    mask = out.dispatch_mask
    weights = out.combine_weights.detach()
    gate_weights = out.gate_weights.detach()
    seed = np.ones((tokens, model_dim), dtype=np.float32)

    def dense_roundtrip():
        x.zero_grad()
        routed = dispatch(x, mask)
        merged = combine(routed, weights)
        merged.backward(seed)

    def sparse_roundtrip():
        x.zero_grad()
        rows, routing = dispatch_grouped(
            x, out.expert_indices, out.slot_indices, experts,
            token_indices=out.token_indices, plan=out.plan,
        )
        combine_grouped(rows, routing, gate_weights, tokens).backward(seed)

    dense_dc = _best_of(dense_roundtrip, repeats)
    sparse_dc = _best_of(sparse_roundtrip, repeats)
    return {
        "config": dict(cfg, capacity=out.capacity),
        "gating": {"dense_s": gating_dense, "sparse_s": gating_sparse},
        "dispatch_combine_fwd_bwd": {
            "dense_s": dense_dc,
            "sparse_s": sparse_dc,
            "speedup": dense_dc / sparse_dc,
        },
    }


def bench_grouped(cfg: dict, repeats: int) -> dict:
    """The capacity-free grouped routed step across capacity factors.

    Times the full *routed step* — dispatch, expert execution, combine,
    forward and backward — from the same gate output, across a sweep
    of capacity factors.  The grouped path sorts the flat N routed
    rows once and never sees C, so its step time stays ~flat as cf
    grows.
    """
    tokens, experts = cfg["tokens"], cfg["experts"]
    top_k, model_dim = cfg["top_k"], cfg["model_dim"]
    bank = Experts(
        experts, model_dim, cfg["hidden_dim"], np.random.default_rng(1)
    )
    rows_out = []
    for cf in cfg["capacity_factors"]:
        rng = np.random.default_rng(0)
        gate = TopKGate(
            model_dim, experts, rng, top_k=top_k, capacity_factor=cf
        )
        x = Tensor(
            rng.standard_normal((tokens, model_dim)).astype(np.float32),
            requires_grad=True,
        )
        out = gate(x.detach())
        gate_weights = out.gate_weights.detach()
        seed = np.ones((tokens, model_dim), dtype=np.float32)

        # Reuses the gate's cached RoutingPlan, exactly as MoELayer's
        # hot path does — no per-step re-sort or kept scan.
        def grouped_step():
            x.zero_grad()
            for p in bank.parameters():
                p.zero_grad()
            flat, routing = dispatch_grouped(
                x, out.expert_indices, out.slot_indices, experts,
                plan=out.plan,
            )
            expert_rows = bank.run_grouped(flat, routing.segment_counts)
            combine_grouped(
                expert_rows, routing, gate_weights, tokens
            ).backward(seed)

        rows_out.append({
            "capacity_factor": cf,
            "capacity": out.capacity,
            "occupancy": float(
                out.expert_load.sum() / (experts * max(out.capacity, 1))
            ),
            "grouped_s": _best_of(grouped_step, repeats),
        })

    grouped_times = [r["grouped_s"] for r in rows_out]
    return {
        "config": {
            k: v for k, v in cfg.items() if k != "capacity_factors"
        },
        "by_capacity_factor": rows_out,
        # max/min grouped step time across the cf sweep — ~1.0 means
        # the capacity factor really left the hot path.
        "grouped_cf_flatness": max(grouped_times) / min(grouped_times),
    }


def bench_overlap(cfg: dict, repeats: int) -> dict:
    """Chunked task-graph pipeline vs the sequential schedule.

    Runs the expert-parallel forward through ``ExpertParallelGroup``
    in both pipeline modes across a sweep of partition degrees
    (``num_chunks``), with the codec and the wire-time link model
    enabled.  Outputs are asserted *bit-identical* between modes
    before timing — both drive the same task callables, only the
    interleaving differs.
    """
    from repro.compression import get_compressor
    from repro.moe.parallel import ExpertParallelGroup

    rng = np.random.default_rng(0)
    layer = MoELayer(
        cfg["model_dim"],
        cfg["hidden_dim"],
        cfg["experts"],
        rng,
        top_k=cfg["top_k"],
        capacity_factor=cfg["capacity_factor"],
        compressor=get_compressor(cfg["compressor"]),
    ).eval()
    data = rng.standard_normal(
        (cfg["tokens"], cfg["model_dim"])
    ).astype(np.float32)
    shards = list(np.split(data, cfg["workers"]))
    bandwidth = cfg["link_gbps"] * 1e9 / 8

    rows = []
    for num_chunks in cfg["num_chunks_sweep"]:
        groups = {
            pipeline: ExpertParallelGroup(
                layer,
                cfg["workers"],
                pipeline=pipeline,
                num_chunks=num_chunks,
                link_bandwidth=bandwidth,
            )
            for pipeline in ("sync", "overlap")
        }
        outs = {
            pipeline: group.forward_concatenated(shards)
            for pipeline, group in groups.items()
        }
        np.testing.assert_array_equal(outs["overlap"], outs["sync"])
        sync_s = _best_of(lambda: groups["sync"].forward(shards), repeats)
        overlap_s = _best_of(
            lambda: groups["overlap"].forward(shards), repeats
        )
        rows.append({
            "num_chunks": num_chunks,
            "sync_s": sync_s,
            "overlap_s": overlap_s,
            "speedup": sync_s / overlap_s,
        })

    headline = next(
        r for r in rows if r["num_chunks"] == cfg["headline_chunks"]
    )
    return {
        "config": {
            k: v for k, v in cfg.items() if k != "num_chunks_sweep"
        },
        "by_num_chunks": rows,
        "headline": headline,
    }


def bench_train_step(cfg: dict, repeats: int) -> dict:
    """One full MoE-layer training step (fwd + loss + bwd) per mode.

    ``reference`` is the dense layer (einsum dispatch around the
    per-expert Python loop); ``optimized`` is the production sparse
    layer (grouped dispatch, segment-GEMM experts, grouped combine).
    """
    timings = {}
    modes = {"reference": "dense", "optimized": "sparse"}
    for mode, dispatch_mode in modes.items():
        rng = np.random.default_rng(7)
        layer = MoELayer(
            cfg["model_dim"],
            cfg["hidden_dim"],
            cfg["experts"],
            rng,
            top_k=cfg["top_k"],
            dispatch_mode=dispatch_mode,
        )
        x = Tensor(
            rng.standard_normal(
                (cfg["tokens"], cfg["model_dim"])
            ).astype(np.float32),
            requires_grad=True,
        )

        def step():
            x.zero_grad()
            for p in layer.parameters():
                p.zero_grad()
            y = layer(x)
            ((y**2).mean() + 0.01 * layer.last_aux_loss).backward()

        timings[f"{mode}_s"] = _best_of(step, repeats)
    timings["speedup"] = timings["reference_s"] / timings["optimized_s"]
    return {"config": dict(cfg), **timings}


def run_hotpath(tiny: bool = False, repeats: int = 3) -> dict:
    routing_cfg = TINY if tiny else FULL
    step_cfg = TINY_STEP if tiny else FULL_STEP
    grouped_cfg = TINY_GROUPED if tiny else FULL_GROUPED
    overlap_cfg = TINY_OVERLAP if tiny else FULL_OVERLAP
    routing = bench_routing(routing_cfg, repeats)
    routing_ec = bench_routing_ec(routing_cfg, repeats)
    grouped = bench_grouped(grouped_cfg, repeats)
    overlap = bench_overlap(overlap_cfg, repeats)
    step = bench_train_step(step_cfg, repeats)
    return {
        "bench": "hotpath",
        "mode": "tiny" if tiny else "full",
        "routing": routing,
        "routing_expert_choice": routing_ec,
        "grouped": grouped,
        "overlap": overlap,
        "train_step": step,
        "acceptance": {
            "overlap_speedup": overlap["headline"]["speedup"],
            "dispatch_combine_speedup": routing[
                "dispatch_combine_fwd_bwd"
            ]["speedup"],
            "ec_dispatch_combine_speedup": routing_ec[
                "dispatch_combine_fwd_bwd"
            ]["speedup"],
            "grouped_cf_flatness": grouped["grouped_cf_flatness"],
            "train_step_speedup": step["speedup"],
        },
    }


def render(report: dict) -> str:
    routing = report["routing"]
    dc = routing["dispatch_combine_fwd_bwd"]
    ec = report["routing_expert_choice"]
    ec_dc = ec["dispatch_combine_fwd_bwd"]
    step = report["train_step"]
    c = routing["config"]
    lines = [
        f"config: T={c['tokens']} E={c['experts']} k={c['top_k']} "
        f"M={c['model_dim']} C={c['capacity']}  ({report['mode']})",
        f"expert-choice C={ec['config']['capacity']}",
        "",
        f"{'section':<26} {'reference':>10} {'optimized':>10} {'speedup':>8}",
        (
            f"{'gating (+densify)':<26} "
            f"{routing['gating']['dense_s'] * 1e3:>8.1f}ms "
            f"{routing['gating']['sparse_s'] * 1e3:>8.1f}ms "
            f"{routing['gating']['dense_s'] / max(routing['gating']['sparse_s'], 1e-12):>7.1f}x"
        ),
        (
            f"{'dispatch+combine f+b':<26} "
            f"{dc['dense_s'] * 1e3:>8.1f}ms {dc['sparse_s'] * 1e3:>8.1f}ms "
            f"{dc['speedup']:>7.1f}x"
        ),
        (
            f"{'EC dispatch+combine f+b':<26} "
            f"{ec_dc['dense_s'] * 1e3:>8.1f}ms "
            f"{ec_dc['sparse_s'] * 1e3:>8.1f}ms "
            f"{ec_dc['speedup']:>7.1f}x"
        ),
        (
            f"{'full training step':<26} "
            f"{step['reference_s'] * 1e3:>8.1f}ms "
            f"{step['optimized_s'] * 1e3:>8.1f}ms "
            f"{step['speedup']:>7.1f}x"
        ),
        "",
        "grouped (capacity-free) routed step f+b across capacity factors:",
        f"{'cf':>6} {'C':>6} {'occ':>6} {'grouped':>10}",
    ]
    grouped = report["grouped"]
    for row in grouped["by_capacity_factor"]:
        lines.append(
            f"{row['capacity_factor']:>6.1f} {row['capacity']:>6d} "
            f"{row['occupancy'] * 100:>5.0f}% "
            f"{row['grouped_s'] * 1e3:>8.1f}ms"
        )
    lines.append(
        f"grouped step-time spread across cf sweep: "
        f"{grouped['grouped_cf_flatness']:.2f}x (1.00x = perfectly flat)"
    )
    overlap = report["overlap"]
    oc = overlap["config"]
    lines += [
        "",
        (
            f"pipeline overlap vs sync (P={oc['workers']} "
            f"codec={oc['compressor']} link={oc['link_gbps']:g} Gb/s):"
        ),
        f"{'chunks':>6} {'sync':>10} {'overlap':>10} {'speedup':>8}",
    ]
    for row in overlap["by_num_chunks"]:
        lines.append(
            f"{row['num_chunks']:>6d} "
            f"{row['sync_s'] * 1e3:>8.1f}ms "
            f"{row['overlap_s'] * 1e3:>8.1f}ms "
            f"{row['speedup']:>7.2f}x"
        )
    return "\n".join(lines)


def write_report(report: dict) -> None:
    emit("hotpath", render(report), data=report)
    # The root artifact tracks the acceptance configuration only — a
    # --tiny smoke run must not clobber the recorded full numbers, and
    # a hot-path rerun must not drop the `inference` section that
    # bench_inference.py merges into the same file.
    if report["mode"] == "full":
        merged = dict(report)
        if ROOT_JSON.exists():
            try:
                prior = json.loads(
                    ROOT_JSON.read_text(encoding="utf-8")
                )
            except json.JSONDecodeError:
                prior = {}
            if "inference" in prior:
                merged["inference"] = prior["inference"]
        ROOT_JSON.write_text(
            json.dumps(merged, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )


def check_acceptance(report: dict) -> None:
    """The full-config floors.

    Grouped routing is >= 5x faster than the dense einsum reference
    for dispatch+combine at T=4096, E=32, k=2, M=1024 — for the top-k
    *and* the expert-choice gate; the grouped routed step stays ~flat
    across cf in {1, 2, 4, 8}; the chunked pipeline hides >= 15% of
    the sync step at the headline partition degree (E=32, M=1024,
    codec + wire model on); and the production training step is
    measurably faster than the dense reference end-to-end.
    """
    acceptance = report["acceptance"]
    assert acceptance["dispatch_combine_speedup"] >= 5.0
    assert acceptance["ec_dispatch_combine_speedup"] >= 5.0
    assert acceptance["grouped_cf_flatness"] <= 2.0
    assert acceptance["overlap_speedup"] >= 1.15
    assert acceptance["train_step_speedup"] > 1.2


def test_hotpath_sparse_speedup(benchmark):
    report = once(benchmark, run_hotpath)
    write_report(report)
    check_acceptance(report)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="smoke configuration for CI (seconds, not minutes)",
    )
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    report = run_hotpath(tiny=args.tiny, repeats=args.repeats)
    write_report(report)
    if not args.tiny:
        check_acceptance(report)


if __name__ == "__main__":
    main()
