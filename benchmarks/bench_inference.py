"""Inference fast path: autograd-free forward with pooled buffers.

Checks the forward-only MoE hot path added for the serving substrate
— ``inference_mode()`` (no backward closures, no ``_parents``, no
tape) plus an arena of pooled scratch buffers with step-scoped reset
— against the regular training-tape forward of the same ``eval()``
layer:

* parity: the inference forward must be *bit-identical* to the
  training-tape forward, for the top-k and the expert-choice gate —
  it runs the same floating-point operations in the same order, only
  without gradient bookkeeping;
* reuse: after the first (warm-up) step, a steady-state inference
  loop must stop accumulating buffer-pool misses — every large
  intermediate is served from the arena's free lists, so the
  steady-state forward performs zero large allocations.

Both checks are deterministic (booleans and allocation counters, no
wall-clock), so the ``benchmarks/out/`` sidecar participates in the CI
sidecar drift gate.  The wall-clock claim on the same shape (inference
>= 1.5x the training-tape forward, and its allocation peak) is timed
in ``bench_hotpath.py``.

Run directly (``--tiny`` for the CI smoke configuration, which prints
and saves nothing)::

    PYTHONPATH=src python benchmarks/bench_inference.py [--tiny]

or via pytest-benchmark like the other benches.
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.moe import MoELayer
from repro.nn import Tensor

from _util import emit, once

#: Acceptance configuration: T=4096, E=32, k=2 at fine-grained narrow
#: experts (M=H=256).
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


def make_layer(cfg: dict, gate_type: str) -> MoELayer:
    return MoELayer(
        model_dim=cfg["model_dim"],
        hidden_dim=cfg["hidden_dim"],
        num_experts=cfg["experts"],
        rng=np.random.default_rng(0),
        top_k=cfg["top_k"],
        capacity_factor=cfg["capacity_factor"],
        gate_type=gate_type,
    ).eval()


def make_input(cfg: dict) -> Tensor:
    rng = np.random.default_rng(1)
    return Tensor(
        rng.standard_normal(
            (cfg["tokens"], cfg["model_dim"])
        ).astype(np.float32)
    )


def check_parity_and_reuse(cfg: dict) -> dict:
    """Bit parity + steady-state pool reuse.

    Runs ``steps`` inference forwards per gate type, comparing each
    against the training-tape forward of the same ``eval()`` layer,
    and snapshots the arena's pool counters after the warm-up step
    and at the end — no new misses may accumulate in between.
    """
    gates = {}
    for gate_type in ("topk", "expert-choice"):
        layer = make_layer(cfg, gate_type)
        x = make_input(cfg)
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


def run_inference_bench(tiny: bool = False) -> dict:
    parity = check_parity_and_reuse(TINY if tiny else FULL)
    gates = parity["gates"].values()
    return {
        "bench": "inference",
        "mode": "tiny" if tiny else "full",
        "parity": parity,
        "acceptance": {
            "bit_identical": all(g["bit_identical"] for g in gates),
            "zero_steady_state_misses": all(
                g["zero_steady_state_misses"] for g in gates
            ),
        },
    }


def render(parity: dict) -> str:
    """Config, parity booleans and pool counters."""
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


def write_report(report: dict) -> None:
    emit(
        "inference",
        render(report["parity"]),
        data={
            "bench": "inference",
            "mode": report["mode"],
            "parity": report["parity"],
        },
        save=report["mode"] == "full",
    )


def test_inference_parity_and_reuse(benchmark):
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
    args = parser.parse_args()
    report = run_inference_bench(tiny=args.tiny)
    write_report(report)
    assert report["acceptance"]["bit_identical"]
    assert report["acceptance"]["zero_steady_state_misses"]


if __name__ == "__main__":
    main()
