"""Hot-path benchmark: each speedup claim as a paired A/B comparison.

Every claim compares two callables on the same inputs — a reference
A against the path that replaces it, B.  :func:`paired` warms both,
then times ``PAIRS`` pairs, A first on even pairs and B first on odd
ones, and reports each side's median and quartiles, the median and
quartiles of the per-pair ratio A/B, and how many pairs B won.  The
claim is the median pair ratio, so host-speed drift cancels within a
pair.  The claims and their floors (asserted by
:func:`check_acceptance` in full mode):

* dispatch + combine, forward + backward: the dense GShard einsums of
  the test suite's reference (``tests/moe/legacy_dense.py``) over
  one-hot (T, E, C) masks (``O(T * E * C * M)`` work) against the
  capacity-free grouped pair (:func:`~repro.moe.dispatch.dispatch_grouped`
  / :func:`~repro.moe.dispatch.combine_grouped`, ``O(T * k * M)``
  work) — >= 5x;
* capacity-freedom: the grouped routed step (sort the flat rows by
  expert, segment-matmul, combine from the flat rows — no (E, C, M)
  buffer) at cf against cf=1 — max/min of the ratios (and 1) <= 2;
* overlap: the sequential schedule against the chunked task-graph
  executor (``pipeline="overlap"``) across partition degrees r, zfp
  and the 1 Gb/s wire-time model on, outputs asserted bit-identical
  first — the ScheMoE Figure-9-style comparison, >= 1.15x at r=4;
* training step: the dense reference layer (einsums around the
  per-expert loop) against the sparse production layer — > 1.2x;
* inference forward: the training-tape forward of an ``eval()`` layer
  against :meth:`~repro.moe.layer.MoELayer.forward_inference` — >= 1.5x,
  and (untimed, tracemalloc) the inference forward's peak over a cold
  and a steady call is at most half the tape forward's, bytes either
  path keeps between calls included.

Results land in ``benchmarks/out/hotpath.{txt,json}``.  Run directly
(``--tiny`` for the CI smoke configuration, which prints and saves
nothing)::

    PYTHONPATH=src python benchmarks/bench_hotpath.py [--tiny]

or via pytest-benchmark like the other benches.
"""

from __future__ import annotations

import argparse
import operator
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.moe import (
    Experts,
    MoELayer,
    TopKGate,
    combine_grouped,
    dispatch_grouped,
)
from repro.nn import Tensor

from _util import emit, once

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))
from compare import summary  # noqa: E402

# The dense reference lives in the test suite, a package at the root.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.moe import legacy_dense  # noqa: E402

#: Timed pairs per claim, after one warm-up call of each side.
PAIRS = 10

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
#: stay ~flat as cf grows.  The first factor is the baseline B.
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
#: The inference forward at T=4096, E=32, k=2 with fine-grained narrow
#: experts (M=H=256).
FULL_INFER = {
    "tokens": 4096,
    "experts": 32,
    "top_k": 2,
    "model_dim": 256,
    "hidden_dim": 256,
    "capacity_factor": 2.0,
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
TINY_INFER = {
    "tokens": 256,
    "experts": 8,
    "top_k": 2,
    "model_dim": 64,
    "hidden_dim": 64,
    "capacity_factor": 2.0,
}

#: Each claim's floor on its acceptance value: (comparison, threshold).
FLOORS = {
    "dispatch_combine_speedup": (">=", 5.0),
    "grouped_cf_flatness": ("<=", 2.0),
    "overlap_speedup": (">=", 1.15),
    "train_step_speedup": (">", 1.2),
    "inference_forward_speedup": (">=", 1.5),
    "inference_steady_step_peak_ratio": ("<=", 0.5),
}
_COMPARE = {">=": operator.ge, "<=": operator.le, ">": operator.gt}


def _quartiles(values) -> dict:
    median, q1, q3, _ = summary(values)
    return {"median": median, "q1": q1, "q3": q3}


def paired(a, b) -> dict:
    """Time ``a`` against ``b`` in ``PAIRS`` alternating pairs.

    One warm-up call of each side, then pair ``i`` runs A first when
    ``i`` is even and B first when it is odd.  Returns each side's
    seconds (``a``, ``b``) and the per-pair ratio A/B (``ratio``) as
    median and quartiles, plus ``b_wins``, the pairs where B was
    faster.
    """
    a()
    b()
    a_s, b_s = [], []
    for i in range(PAIRS):
        sides = ((a, a_s), (b, b_s))
        for fn, times in sides if i % 2 == 0 else sides[::-1]:
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
    return {
        "a": _quartiles(a_s),
        "b": _quartiles(b_s),
        "ratio": _quartiles([x / y for x, y in zip(a_s, b_s)]),
        "b_wins": sum(y < x for x, y in zip(a_s, b_s)),
    }


def bench_routing(cfg: dict) -> dict:
    """Dense einsum dispatch+combine f+b against the grouped pair.

    B is the production pair (:func:`dispatch_grouped` /
    :func:`combine_grouped`, reading the :class:`TopKGate`'s routing
    plan exactly as the layer does).
    """
    tokens, experts = cfg["tokens"], cfg["experts"]
    rng = np.random.default_rng(0)
    gate = TopKGate(cfg["model_dim"], experts, rng, top_k=cfg["top_k"])
    x = Tensor(
        rng.standard_normal((tokens, cfg["model_dim"])).astype(np.float32),
        requires_grad=True,
    )
    out = gate(x.detach())
    mask = legacy_dense.dispatch_mask(out)
    weights = legacy_dense.combine_weights(out).detach()
    gate_weights = out.gate_weights.detach()
    seed = np.ones((tokens, cfg["model_dim"]), dtype=np.float32)

    def dense_roundtrip():
        x.zero_grad()
        legacy_dense.combine(
            legacy_dense.dispatch(x, mask), weights
        ).backward(seed)

    def sparse_roundtrip():
        x.zero_grad()
        rows = dispatch_grouped(x, out.plan)
        combine_grouped(rows, out.plan, gate_weights).backward(seed)

    return {
        "config": dict(cfg, capacity=out.capacity),
        **paired(dense_roundtrip, sparse_roundtrip),
    }


def bench_grouped(cfg: dict) -> dict:
    """The capacity-free grouped routed step at each cf against cf=1.

    Times the full *routed step* — dispatch, expert execution, combine,
    forward and backward — from each capacity factor's gate output.
    The grouped path sorts the flat N routed rows once and never sees
    C, so each ratio should sit near 1.
    """
    tokens, experts = cfg["tokens"], cfg["experts"]
    model_dim = cfg["model_dim"]
    bank = Experts(
        experts, model_dim, cfg["hidden_dim"], np.random.default_rng(1)
    )
    seed = np.ones((tokens, model_dim), dtype=np.float32)

    def routed_step(cf: float):
        rng = np.random.default_rng(0)
        gate = TopKGate(
            model_dim, experts, rng, top_k=cfg["top_k"], capacity_factor=cf
        )
        x = Tensor(
            rng.standard_normal((tokens, model_dim)).astype(np.float32),
            requires_grad=True,
        )
        out = gate(x.detach())
        gate_weights = out.gate_weights.detach()

        # Reads the gate's RoutingPlan, exactly as MoELayer's hot path
        # does — no per-step re-sort or kept scan.
        def step():
            x.zero_grad()
            for p in bank.parameters():
                p.zero_grad()
            flat = dispatch_grouped(x, out.plan)
            expert_rows = bank.run_grouped(flat, out.plan.segment_counts)
            combine_grouped(expert_rows, out.plan, gate_weights).backward(
                seed
            )

        occupancy = out.expert_load.sum() / (experts * max(out.capacity, 1))
        return step, out.capacity, float(occupancy)

    base_cf, *factors = cfg["capacity_factors"]
    base_step, _, _ = routed_step(base_cf)
    rows = []
    for cf in factors:
        step, capacity, occupancy = routed_step(cf)
        rows.append({
            "capacity_factor": cf,
            "capacity": capacity,
            "occupancy": occupancy,
            **paired(step, base_step),
        })
    ratios = [1.0] + [row["ratio"]["median"] for row in rows]
    return {
        "config": {
            k: v for k, v in cfg.items() if k != "capacity_factors"
        },
        "base_capacity_factor": base_cf,
        "by_capacity_factor": rows,
        # max/min over 1 and the median ratios — ~1.0 means the
        # capacity factor really left the hot path.
        "grouped_cf_flatness": max(ratios) / min(ratios),
    }


def bench_overlap(cfg: dict) -> dict:
    """The sequential schedule against the chunked task-graph pipeline.

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
        sync, overlap = (
            ExpertParallelGroup(
                layer,
                cfg["workers"],
                pipeline=pipeline,
                num_chunks=num_chunks,
                link_bandwidth=bandwidth,
            )
            for pipeline in ("sync", "overlap")
        )
        np.testing.assert_array_equal(
            overlap.forward_concatenated(shards),
            sync.forward_concatenated(shards),
        )
        rows.append({
            "num_chunks": num_chunks,
            **paired(
                lambda: sync.forward(shards),
                lambda: overlap.forward(shards),
            ),
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


def bench_train_step(cfg: dict) -> dict:
    """One MoE-layer training step (fwd + loss + bwd), dense vs sparse.

    A is the dense reference layer (einsum dispatch around the
    per-expert Python loop, ``tests/moe/legacy_dense.py``); B is the
    production layer (grouped dispatch, segment-GEMM experts, grouped
    combine).
    """

    def training_step(forward):
        rng = np.random.default_rng(7)
        layer = MoELayer(
            cfg["model_dim"],
            cfg["hidden_dim"],
            cfg["experts"],
            rng,
            top_k=cfg["top_k"],
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
            y = forward(layer, x)
            ((y**2).mean() + 0.01 * layer.last_aux_loss).backward()

        return step

    return {
        "config": dict(cfg),
        **paired(
            training_step(legacy_dense.forward),
            training_step(MoELayer.__call__),
        ),
    }


def make_layer(cfg: dict) -> MoELayer:
    """A seeded ``eval()`` layer at shape ``cfg``."""
    return MoELayer(
        model_dim=cfg["model_dim"],
        hidden_dim=cfg["hidden_dim"],
        num_experts=cfg["experts"],
        rng=np.random.default_rng(0),
        top_k=cfg["top_k"],
        capacity_factor=cfg["capacity_factor"],
    ).eval()


def make_input(cfg: dict) -> Tensor:
    """A seeded ``(tokens, model_dim)`` batch."""
    rng = np.random.default_rng(1)
    return Tensor(
        rng.standard_normal(
            (cfg["tokens"], cfg["model_dim"])
        ).astype(np.float32)
    )


def _cold_then_steady_peak(forward, x: Tensor) -> int:
    """Peak traced bytes over a cold call, then a steady one.

    Numpy data included.  Pass a fresh layer's forward: whatever it
    keeps between the two calls is traced, so held bytes count.
    """
    tracemalloc.start()
    try:
        for _ in range(2):
            forward(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


def bench_inference(cfg: dict) -> dict:
    """The ``eval()`` training-tape forward against ``forward_inference``.

    The full shape uses M=256, H=256 — the fine-grained narrow-expert
    regime (many small experts, DeepSeek-style) where routing and
    combine overheads, not the expert GEMMs, dominate the step.  At
    this shape the tape-free forward saves memory, not time: both
    forwards run the same numpy calls.
    """
    layer = make_layer(cfg)
    x = make_input(cfg)
    timed = paired(lambda: layer(x), lambda: layer.forward_inference(x))
    # Memory, untimed (tracemalloc slows every allocation), each on a
    # fresh layer.
    tape_peak = _cold_then_steady_peak(make_layer(cfg), x)
    infer_peak = _cold_then_steady_peak(make_layer(cfg).forward_inference, x)
    return {
        "config": dict(cfg),
        **timed,
        "tape_peak_bytes": tape_peak,
        "infer_peak_bytes": infer_peak,
        "peak_ratio": infer_peak / max(tape_peak, 1),
    }


def run_hotpath(tiny: bool = False) -> dict:
    routing = bench_routing(TINY if tiny else FULL)
    grouped = bench_grouped(TINY_GROUPED if tiny else FULL_GROUPED)
    overlap = bench_overlap(TINY_OVERLAP if tiny else FULL_OVERLAP)
    step = bench_train_step(TINY_STEP if tiny else FULL_STEP)
    inference = bench_inference(TINY_INFER if tiny else FULL_INFER)
    return {
        "bench": "hotpath",
        "mode": "tiny" if tiny else "full",
        "pairs": PAIRS,
        "routing": routing,
        "grouped": grouped,
        "overlap": overlap,
        "train_step": step,
        "inference": inference,
        "acceptance": {
            "dispatch_combine_speedup": routing["ratio"]["median"],
            "grouped_cf_flatness": grouped["grouped_cf_flatness"],
            "overlap_speedup": overlap["headline"]["ratio"]["median"],
            "train_step_speedup": step["ratio"]["median"],
            "inference_forward_speedup": inference["ratio"]["median"],
            "inference_steady_step_peak_ratio": inference["peak_ratio"],
        },
    }


def _meets(name: str, value: float) -> bool:
    op, threshold = FLOORS[name]
    return _COMPARE[op](value, threshold)


def _row(label: str, result: dict) -> str:
    def span(q: dict, scale: float, fmt: str) -> str:
        return (
            f"{q['median'] * scale:{fmt}} "
            f"[{q['q1'] * scale:{fmt}}, {q['q3'] * scale:{fmt}}]"
        )

    return (
        f"{label:<32} {span(result['a'], 1e3, '.1f'):>28} "
        f"{span(result['b'], 1e3, '.1f'):>28} "
        f"{span(result['ratio'], 1.0, '.2f'):>22} "
        f"{result['b_wins']:>3d}/{PAIRS}"
    )


def render(report: dict) -> str:
    c = report["routing"]["config"]
    grouped = report["grouped"]
    overlap = report["overlap"]
    oc = overlap["config"]
    inference = report["inference"]
    ic = inference["config"]
    header = (
        f"{'claim (A / B)':<32} {'A ms median [q1, q3]':>28} "
        f"{'B ms median [q1, q3]':>28} {'A/B median [q1, q3]':>22} "
        f"{'B won':>6}"
    )
    lines = [
        f"{report['pairs']} pairs per claim after one warm-up of each "
        f"side; A runs first on even pairs, B on odd ({report['mode']})",
        "",
        f"routing: T={c['tokens']} E={c['experts']} k={c['top_k']} "
        f"M={c['model_dim']} C={c['capacity']}",
        header,
        _row("top-k dispatch+combine f+b", report["routing"]),
        "",
        "grouped routed step f+b at cf / at "
        f"cf={grouped['base_capacity_factor']:g}:",
    ]
    for row in grouped["by_capacity_factor"]:
        label = (
            f"cf={row['capacity_factor']:g} C={row['capacity']} "
            f"occ={row['occupancy'] * 100:.0f}%"
        )
        lines.append(_row(label, row))
    lines += [
        f"flatness (max/min of 1 and the medians): "
        f"{grouped['grouped_cf_flatness']:.2f}x",
        "",
        (
            f"sync / overlap (P={oc['workers']} codec={oc['compressor']} "
            f"link={oc['link_gbps']:g} Gb/s):"
        ),
    ]
    for row in overlap["by_num_chunks"]:
        lines.append(_row(f"r={row['num_chunks']}", row))
    lines += [
        "",
        _row("dense / sparse training step", report["train_step"]),
        _row(
            f"tape / inference fwd M={ic['model_dim']} "
            f"H={ic['hidden_dim']}",
            inference,
        ),
        (
            f"inference peak over a cold + a steady call: "
            f"{inference['infer_peak_bytes'] / 2**20:.2f} MiB "
            f"= {inference['peak_ratio'] * 100:.1f}% of the "
            f"tape forward's "
            f"{inference['tape_peak_bytes'] / 2**20:.1f} MiB"
        ),
        "",
        "acceptance (floors asserted in full mode only):",
    ]
    for name, (op, threshold) in FLOORS.items():
        value = report["acceptance"][name]
        lines.append(
            f"  {name:<34} {value:>8.3f}  floor {op} {threshold:<5g} "
            f"{'ok' if _meets(name, value) else 'FAIL'}"
        )
    return "\n".join(lines)


def check_acceptance(report: dict) -> None:
    """Every claim meets its floor (see the module docstring)."""
    acceptance = report["acceptance"]
    missed = [
        f"{name} = {acceptance[name]:.3f} (floor {op} {threshold})"
        for name, (op, threshold) in FLOORS.items()
        if not _meets(name, acceptance[name])
    ]
    assert not missed, "claims below their floor: " + "; ".join(missed)


def test_paired_timer_alternates_and_summarises(monkeypatch):
    """Drive :func:`paired` with a fake clock each call advances."""
    now = [0.0]
    calls = []
    # Warm-up first (excluded), then one duration per pair.
    durations = {
        "a": iter([100.0] + [2.0 * (i + 1) for i in range(PAIRS)]),
        "b": iter([100.0] + [1.0 * (i + 1) for i in range(PAIRS - 1)]
                  + [25.0]),
    }

    def side(name):
        def fn():
            calls.append(name)
            now[0] += next(durations[name])
        return fn

    monkeypatch.setattr(time, "perf_counter", lambda: now[0])
    result = paired(side("a"), side("b"))

    pairs = [("a", "b") if i % 2 == 0 else ("b", "a") for i in range(PAIRS)]
    assert calls == ["a", "b"] + [name for pair in pairs for name in pair]
    # A: 2, 4, ..., 20; B: 1, 2, ..., 9, 25 (statistics' exclusive
    # quartiles at n=10 sit at positions 2.75 and 8.25).
    assert result["a"] == {"median": 11.0, "q1": 5.5, "q3": 16.5}
    assert result["b"] == {"median": 5.5, "q1": 2.75, "q3": 8.25}
    # Ratios: 2.0 on nine pairs, 20/25 = 0.8 on the last.
    assert result["ratio"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert result["b_wins"] == PAIRS - 1


def test_hotpath_sparse_speedup(benchmark):
    report = once(benchmark, run_hotpath)
    emit("hotpath", render(report), data=report)
    check_acceptance(report)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="smoke configuration for CI (seconds, not minutes)",
    )
    args = parser.parse_args()
    report = run_hotpath(tiny=args.tiny)
    emit("hotpath", render(report), data=report, save=not args.tiny)
    if not args.tiny:
        check_acceptance(report)


if __name__ == "__main__":
    main()
