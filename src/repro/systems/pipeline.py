"""The pipeline study: ScheMoE's sync-vs-overlap forward on real numerics.

One study, built once and shared by ``benchmarks/bench_pipeline.py``
(which saves the rendered text as its sidecar) and
``python -m repro pipeline`` (which prints the same text).

The paper's central mechanism runs the same seven tasks
C1 A1 D1 E C2 A2 D2 per chunk, only reordered: ``pipeline="sync"``
executes them chunk-major on the calling thread, ``pipeline="overlap"``
on two FIFO streams in a scheduler's order.  One MoE layer, shared by
:data:`SHAPE`'s ``workers`` logical workers with zfp on both
all-to-alls, runs that forward for every scheduler in
:data:`SCHEDULERS` at every chunk count in :data:`NUM_CHUNKS`.  Per
cell the study checks two facts:

* the overlap output is bit-identical to the sync output at the same
  chunk count (sync ignores the scheduler, so one sync forward per
  chunk count serves its whole row);
* the cross-worker bytes the two all-to-alls put on the wire are
  within 1% of zfp's nominal ``compressed_bytes`` of the fp32 bytes a
  codec-free twin of the layer ships.

No link model is attached, and no wall clock is read, so the report is
deterministic.  The paired overlap speedup is timed in
``benchmarks/bench_hotpath.py``.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..compression import get_compressor
from ..moe import MoELayer
from ..moe.parallel import ExpertParallelGroup

#: The layer, its batch and the worker count.
SHAPE = {
    "experts": 32,
    "tokens": 4096,
    "model_dim": 256,
    "hidden_dim": 512,
    "workers": 4,
    "top_k": 2,
    "capacity_factor": 2.0,
    "compressor": "zfp",
}
#: A fixed list, not ``available_schedulers()``: a scheduler registered
#: in the same process must not change the report.
SCHEDULERS = ("sequential", "chunk-pipeline", "optsche", "brute-force")
NUM_CHUNKS = (1, 2, 4, 8)
#: Relative tolerance of the wire bytes against the codec's nominal
#: bytes (zfp pads each payload to whole 64-value blocks).
BYTES_RTOL = 0.01


def _layer(codec) -> MoELayer:
    return MoELayer(
        model_dim=SHAPE["model_dim"],
        hidden_dim=SHAPE["hidden_dim"],
        num_experts=SHAPE["experts"],
        rng=np.random.default_rng(0),
        top_k=SHAPE["top_k"],
        capacity_factor=SHAPE["capacity_factor"],
        compressor=codec,
    ).eval()


def _wire_bytes(group: ExpertParallelGroup) -> int:
    """Cross-worker bytes of the group's last forward, both A2As."""
    return int(
        group.last_dispatch_traffic.off_diagonal_bytes
        + group.last_combine_traffic.off_diagonal_bytes
    )


def run_pipeline_study() -> dict:
    """Every (scheduler, chunk count) cell of the sync-vs-overlap grid."""
    codec = get_compressor(SHAPE["compressor"])
    layer = _layer(codec)
    tokens = np.random.default_rng(1).standard_normal(
        (SHAPE["tokens"], SHAPE["model_dim"])
    ).astype(np.float32)
    shards = list(np.split(tokens, SHAPE["workers"]))

    twin = ExpertParallelGroup(_layer(None), SHAPE["workers"])
    twin.forward(shards)
    fp32 = _wire_bytes(twin)
    nominal = codec.compressed_bytes(fp32)

    cells = []
    for r in NUM_CHUNKS:
        sync = ExpertParallelGroup(layer, SHAPE["workers"], num_chunks=r)
        reference = sync.forward_concatenated(shards)
        for scheduler in SCHEDULERS:
            group = ExpertParallelGroup(
                layer,
                SHAPE["workers"],
                pipeline="overlap",
                num_chunks=r,
                scheduler=scheduler,
            )
            out = group.forward_concatenated(shards)
            wire = _wire_bytes(group)
            cells.append({
                "scheduler": scheduler,
                "num_chunks": r,
                "bit_identical": bool(np.array_equal(reference, out)),
                "wire_bytes": wire,
                "bytes_within_1pct": abs(wire - nominal) <= BYTES_RTOL * nominal,
            })
    return {
        "bench": "pipeline",
        "shape": dict(SHAPE),
        "fp32_bytes": fp32,
        "nominal_bytes": nominal,
        "cells": cells,
    }


def failed_checks(report: dict) -> List[str]:
    """Names of the checks ``report`` fails (empty: all hold)."""
    failed = []
    for cell in report["cells"]:
        name = f"{cell['scheduler']}.r{cell['num_chunks']}"
        if not cell["bit_identical"]:
            failed.append(f"{name}.bit_identical")
        if not cell["bytes_within_1pct"]:
            failed.append(f"{name}.bytes_within_1pct")
    return failed


def render(report: dict) -> str:
    """The study's text block."""
    s = report["shape"]
    nominal = report["nominal_bytes"]
    lines = [
        f"chunked expert-parallel forward: E={s['experts']} "
        f"T={s['tokens']} M={s['model_dim']} H={s['hidden_dim']} "
        f"P={s['workers']} k={s['top_k']} cf={s['capacity_factor']:g} "
        f"codec={s['compressor']}, no link model",
        f"cross-worker bytes (dispatch + combine): fp32 "
        f"{report['fp32_bytes']:,} (codec-free twin), "
        f"{s['compressor']} nominal {nominal:,.0f}",
        "",
        f"{'scheduler':<16} {'r':>2} {'sync == overlap':>16} "
        f"{'wire bytes':>12} {'vs nominal':>11}",
    ]
    for cell in report["cells"]:
        lines.append(
            f"{cell['scheduler']:<16} {cell['num_chunks']:>2} "
            f"{str(cell['bit_identical']):>16} "
            f"{cell['wire_bytes']:>12,} "
            f"{(cell['wire_bytes'] / nominal - 1) * 100:>+10.2f}%"
        )
    cells = report["cells"]
    lines += [
        "",
        "overlap bit-identical to sync in every cell: "
        + str(all(c["bit_identical"] for c in cells)),
        f"wire bytes within {BYTES_RTOL:.0%} of nominal in every cell: "
        + str(all(c["bytes_within_1pct"] for c in cells)),
    ]
    return "\n".join(lines)
