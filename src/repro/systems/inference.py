"""The inference study: the autograd-free forward against the tape.

One study, built once and shared by ``benchmarks/bench_inference.py``
(which saves the rendered text as its sidecar) and
``python -m repro infer`` (which prints the same text).  It checks the
forward-only MoE hot path — ``inference_mode()`` (no backward
closures, no ``_parents``, no tape) plus an arena of pooled scratch
buffers with step-scoped reset — against the regular training-tape
forward of the same ``eval()`` layer:

* parity: the inference forward must be *bit-identical* to the
  training-tape forward, for the top-k and the expert-choice gate —
  it runs the same floating-point operations in the same order, only
  without gradient bookkeeping;
* reuse: after the first (warm-up) step, a steady-state inference
  loop must stop accumulating buffer-pool misses — every large
  intermediate is served from the arena's free lists, so the
  steady-state forward performs zero large allocations.

Both checks are deterministic (booleans and allocation counters, no
wall-clock).  The wall-clock claim on the same shape (inference >=
1.5x the training-tape forward, and its allocation peak) is timed in
``benchmarks/bench_hotpath.py``, which builds its layer and batch
with :func:`make_layer` and :func:`make_input`.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..moe import MoELayer
from ..nn import Tensor

#: T=4096, E=32, k=2 at fine-grained narrow experts (M=H=256).
FULL = {
    "tokens": 4096,
    "experts": 32,
    "top_k": 2,
    "model_dim": 256,
    "hidden_dim": 256,
    "capacity_factor": 2.0,
    "steps": 4,
}
GATES = ("topk", "expert-choice")


def make_layer(cfg: dict, gate_type: str) -> MoELayer:
    """The study's seeded ``eval()`` layer at shape ``cfg``."""
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
    """The study's seeded ``(tokens, model_dim)`` batch."""
    rng = np.random.default_rng(1)
    return Tensor(
        rng.standard_normal(
            (cfg["tokens"], cfg["model_dim"])
        ).astype(np.float32)
    )


def _pool_counters(stats: dict) -> dict:
    return {k: stats[k] for k in ("hits", "misses", "bytes_allocated")}


def _gate_study(cfg: dict, gate_type: str) -> dict:
    """``steps`` inference forwards against one tape forward.

    Snapshots the arena's pool counters after the warm-up step and at
    the end; no new misses may accumulate in between.
    """
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
    return {
        "bit_identical": bit_identical,
        "no_tape": no_tape,
        "pool_after_warmup": _pool_counters(warm),
        "pool_steady_state": _pool_counters(steady),
        "zero_steady_state_misses": steady["misses"] == warm["misses"],
    }


def run_inference_study() -> dict:
    """The whole study at :data:`FULL`, one entry per gate type."""
    return {
        "bench": "inference",
        "mode": "full",
        "parity": {
            "config": dict(FULL),
            "gates": {g: _gate_study(FULL, g) for g in GATES},
        },
    }


def failed_checks(report: dict) -> List[str]:
    """Names of the checks ``report`` fails (empty: all hold)."""
    gates = report["parity"]["gates"].values()
    checks = {
        name: all(g[name] for g in gates)
        for name in ("bit_identical", "no_tape", "zero_steady_state_misses")
    }
    return [name for name, ok in checks.items() if not ok]


def render(report: dict) -> str:
    """Config, parity booleans and pool counters."""
    parity = report["parity"]
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
