"""Inference fast path: autograd-free forward with pooled buffers.

Measures the forward-only MoE hot path added for the serving
substrate — ``inference_mode()`` (no backward closures, no
``_parents``, no tape) plus an arena of pooled scratch buffers with
step-scoped reset — against the regular training-tape forward of the
same ``eval()`` layer:

* parity: the inference forward must be *bit-identical* to the
  training-tape forward, for the top-k and the expert-choice gate —
  it runs the same floating-point operations in the same order, only
  without gradient bookkeeping;
* reuse: after the first (warm-up) step, a steady-state inference
  loop must stop accumulating buffer-pool misses — every large
  intermediate is served from the arena's free lists, so the
  steady-state forward performs zero large allocations;
* throughput / memory (full mode only): forward tokens/sec for both
  paths and their tracemalloc peaks.  The acceptance floor —
  inference >= 1.5x the training-tape forward at T=4096, E=32, k=2 —
  is asserted in full mode and recorded into ``BENCH_hotpath.json``
  as the ``inference`` section.

The parity/reuse section is deterministic (booleans and allocation
counters, no wall-clock), so its ``benchmarks/out/`` sidecar
participates in the CI sidecar drift gate; timings live only in
stdout and the root ``BENCH_hotpath.json``, which the gate does not
diff.

The full configuration uses M=256, H=256 — the fine-grained
narrow-expert regime (many small experts, DeepSeek-style) where
routing and combine overheads, not the expert GEMMs, dominate the
step; that is exactly the regime the tape-free path accelerates.  At
wider experts the same absolute savings apply but the GEMM wall
compresses the ratio.

Run directly (``--tiny`` for the CI smoke configuration)::

    PYTHONPATH=src python benchmarks/bench_inference.py [--tiny]

or via pytest-benchmark like the other benches.
"""

from __future__ import annotations

import argparse
import json
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.moe import MoELayer
from repro.nn import Tensor

from _util import emit, once

ROOT_JSON = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"

#: Acceptance configuration: the issue-pinned T=4096, E=32, k=2 at
#: fine-grained narrow experts (see module docstring).
FULL = {
    "tokens": 4096,
    "experts": 32,
    "top_k": 2,
    "model_dim": 256,
    "hidden_dim": 256,
    "capacity_factor": 2.0,
    "steps": 4,
}
TINY = {
    "tokens": 256,
    "experts": 8,
    "top_k": 2,
    "model_dim": 64,
    "hidden_dim": 64,
    "capacity_factor": 2.0,
    "steps": 3,
}


def _make_layer(cfg: dict, gate_type: str) -> MoELayer:
    return MoELayer(
        model_dim=cfg["model_dim"],
        hidden_dim=cfg["hidden_dim"],
        num_experts=cfg["experts"],
        rng=np.random.default_rng(0),
        top_k=cfg["top_k"],
        capacity_factor=cfg["capacity_factor"],
        gate_type=gate_type,
    ).eval()


def _make_input(cfg: dict) -> Tensor:
    rng = np.random.default_rng(1)
    return Tensor(
        rng.standard_normal(
            (cfg["tokens"], cfg["model_dim"])
        ).astype(np.float32)
    )


def check_parity_and_reuse(cfg: dict) -> dict:
    """Deterministic section: bit parity + steady-state pool reuse.

    Runs ``steps`` inference forwards per gate type, comparing each
    against the training-tape forward of the same ``eval()`` layer,
    and snapshots the arena's pool counters after the warm-up step
    and at the end — no new misses may accumulate in between.
    """
    gates = {}
    for gate_type in ("topk", "expert-choice"):
        layer = _make_layer(cfg, gate_type)
        x = _make_input(cfg)
        baseline = layer(x).data.copy()  # training-tape forward

        bit_identical = True
        no_tape = True
        layer.forward_inference(x)  # warm-up: populates the pool
        warm = layer._inference_arena.stats()
        for _ in range(cfg["steps"]):
            y = layer.forward_inference(x)
            bit_identical &= bool(np.array_equal(baseline, y.data))
            no_tape &= y._parents == () and y._backward is None
        steady = layer._inference_arena.stats()

        gates[gate_type] = {
            "bit_identical": bit_identical,
            "no_tape": no_tape,
            "pool_after_warmup": {
                "hits": warm["hits"],
                "misses": warm["misses"],
                "bytes_allocated": warm["bytes_allocated"],
            },
            "pool_steady_state": {
                "hits": steady["hits"],
                "misses": steady["misses"],
                "bytes_allocated": steady["bytes_allocated"],
            },
            "zero_steady_state_misses": (
                steady["misses"] == warm["misses"]
            ),
        }
    return {"config": dict(cfg), "gates": gates}


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _traced_peak(fn) -> int:
    """Peak traced bytes across one call (numpy data included)."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


def bench_throughput(cfg: dict, repeats: int) -> dict:
    """Timed section: tokens/sec and peak memory, both paths.

    Wall-clock and tracemalloc numbers are machine-dependent, so this
    section only ever lands in stdout and the root
    ``BENCH_hotpath.json`` — never in the gate-diffed sidecar.
    """
    layer = _make_layer(cfg, "topk")
    x = _make_input(cfg)

    layer(x)  # warm numpy/np.matmul caches
    train_s = _best_of(lambda: layer(x), repeats)
    layer.forward_inference(x)  # warm the arena pool
    infer_s = _best_of(lambda: layer.forward_inference(x), repeats)

    # Memory phase, separate from timing: tracemalloc slows every
    # allocation, so its overhead must not pollute the timings above.
    # The training-tape forward pays its full allocation peak on
    # *every* step (all intermediates are allocated fresh and pinned
    # by the tape); the steady-state inference step draws everything
    # from the warm arena, so its traced peak is the near-zero
    # residue of small (sub-threshold) allocations.  The arena's
    # resident working set — paid once at warm-up, reused forever —
    # is reported alongside.
    train_peak = _traced_peak(lambda: layer(x))
    infer_steady_peak = _traced_peak(lambda: layer.forward_inference(x))
    arena_bytes = layer._inference_arena.pool.bytes_allocated

    tokens = cfg["tokens"]
    return {
        "train_forward_s": train_s,
        "infer_forward_s": infer_s,
        "train_tokens_per_s": tokens / train_s,
        "infer_tokens_per_s": tokens / infer_s,
        "speedup": train_s / infer_s,
        "train_step_peak_bytes": train_peak,
        "infer_steady_step_peak_bytes": infer_steady_peak,
        "arena_working_set_bytes": int(arena_bytes),
        "steady_step_peak_ratio": infer_steady_peak / max(train_peak, 1),
    }


def run_inference_bench(tiny: bool = False, repeats: int = 3) -> dict:
    cfg = TINY if tiny else FULL
    report = {
        "bench": "inference",
        "mode": "tiny" if tiny else "full",
        "parity": check_parity_and_reuse(cfg),
        "throughput": bench_throughput(cfg, repeats),
    }
    parity = report["parity"]["gates"]
    report["acceptance"] = {
        "bit_identical": all(
            g["bit_identical"] for g in parity.values()
        ),
        "zero_steady_state_misses": all(
            g["zero_steady_state_misses"] for g in parity.values()
        ),
        "forward_speedup": report["throughput"]["speedup"],
        "forward_speedup_floor": 1.5,
        "steady_step_peak_ratio": report["throughput"][
            "steady_step_peak_ratio"
        ],
    }
    return report


def render_deterministic(parity: dict) -> str:
    """The gate-safe block: config, parity booleans, pool counters."""
    c = parity["config"]
    lines = [
        f"config: T={c['tokens']} E={c['experts']} k={c['top_k']} "
        f"M={c['model_dim']} H={c['hidden_dim']} "
        f"cf={c['capacity_factor']:g} steps={c['steps']}",
        "",
        f"{'gate':<16} {'bit-identical':>14} {'no tape':>8} "
        f"{'pool misses':>12} {'steady misses':>14}",
    ]
    for gate_type, g in parity["gates"].items():
        lines.append(
            f"{gate_type:<16} {str(g['bit_identical']):>14} "
            f"{str(g['no_tape']):>8} "
            f"{g['pool_steady_state']['misses']:>12d} "
            f"{'+0' if g['zero_steady_state_misses'] else 'GREW':>14}"
        )
    lines.append("")
    lines.append(
        "steady-state inference forward performs zero large "
        "allocations: "
        + str(all(
            g["zero_steady_state_misses"]
            for g in parity["gates"].values()
        ))
    )
    return "\n".join(lines)


def render_throughput(report: dict) -> str:
    t = report["throughput"]
    return "\n".join([
        f"training-tape forward: {t['train_forward_s'] * 1e3:8.2f} ms "
        f"({t['train_tokens_per_s']:,.0f} tok/s, "
        f"allocates {t['train_step_peak_bytes'] / 2**20:.1f} MiB "
        f"peak per step)",
        f"inference forward:     {t['infer_forward_s'] * 1e3:8.2f} ms "
        f"({t['infer_tokens_per_s']:,.0f} tok/s, "
        f"allocates {t['infer_steady_step_peak_bytes'] / 2**20:.2f} MiB "
        f"peak per steady-state step; arena working set "
        f"{t['arena_working_set_bytes'] / 2**20:.1f} MiB, reused)",
        f"speedup: {t['speedup']:.2f}x "
        f"(floor {report['acceptance']['forward_speedup_floor']}x); "
        f"steady-state step allocation peak is "
        f"{t['steady_step_peak_ratio'] * 100:.1f}% of training's",
    ])


def write_report(report: dict) -> None:
    # Only the deterministic parity/reuse section goes to the sidecar
    # (the gate diffs it); print the timings to stdout separately.
    emit(
        "inference",
        render_deterministic(report["parity"]),
        data={
            "bench": "inference",
            "mode": report["mode"],
            "parity": report["parity"],
        },
    )
    print(render_throughput(report))
    if report["mode"] == "full":
        # Merge the inference section into the root hot-path artifact
        # without clobbering bench_hotpath's sections.
        root = {}
        if ROOT_JSON.exists():
            try:
                root = json.loads(ROOT_JSON.read_text(encoding="utf-8"))
            except json.JSONDecodeError:
                root = {}
        root["inference"] = {
            "config": report["parity"]["config"],
            "throughput": report["throughput"],
            "acceptance": report["acceptance"],
        }
        ROOT_JSON.write_text(
            json.dumps(root, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )


def test_inference_parity_and_reuse(benchmark):
    # Full *shape*, but only the deterministic checks are asserted
    # here — the wall-clock floor is full-mode-only (machine noise on
    # shared CI runners must not flake the drift gate).
    report = once(benchmark, run_inference_bench)
    write_report(report)
    assert report["acceptance"]["bit_identical"]
    assert report["acceptance"]["zero_steady_state_misses"]


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
    report = run_inference_bench(tiny=args.tiny, repeats=args.repeats)
    write_report(report)
    assert report["acceptance"]["bit_identical"]
    assert report["acceptance"]["zero_steady_state_misses"]
    if not args.tiny:
        floor = report["acceptance"]["forward_speedup_floor"]
        speedup = report["acceptance"]["forward_speedup"]
        assert speedup >= floor, (
            f"inference forward speedup {speedup:.2f}x below the "
            f"{floor}x floor"
        )
        ratio = report["acceptance"]["steady_step_peak_ratio"]
        assert ratio <= 0.5, (
            f"steady-state inference step allocation peak is "
            f"{ratio:.2f}x the training step's — the arena is not "
            f"absorbing the large allocations"
        )


if __name__ == "__main__":
    main()
