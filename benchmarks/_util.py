"""Shared helpers for the benchmark harness.

Every bench regenerates one table or figure of the paper and emits a
paper-formatted text block: printed to stdout (visible with ``-s``)
and saved under ``benchmarks/out/`` for EXPERIMENTS.md.  Each text
block also gets a JSON sidecar (``out/<name>.json``) so every bench
output is machine-diffable — benches pass structured ``data`` where
they have it, and the sidecar always carries the rendered lines.  A
``--tiny`` smoke run only prints its block, so it never replaces a
committed full-mode output.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

OUT_DIR = Path(__file__).resolve().parent / "out"


def emit(
    name: str, text: str, data: Optional[dict] = None, save: bool = True
) -> str:
    """Print one bench's output block; persist it (+ JSON sidecar)
    unless ``save`` is false."""
    banner = f"\n===== {name} =====\n"
    block = banner + text.rstrip() + "\n"
    print(block)
    if not save:
        return block
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{name}.txt").write_text(block, encoding="utf-8")
    sidecar = {"name": name, "lines": text.rstrip().splitlines()}
    if data is not None:
        sidecar["data"] = data
    (OUT_DIR / f"{name}.json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return block


def once(benchmark, fn):
    """Run a slow simulation exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
