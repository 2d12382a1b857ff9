"""Bit-exact pins of the expert-parallel group's per-worker outputs.

``parallel_pins.json`` holds, per case, the sha256 of every worker's
output bytes.  They were recorded while A1/A2 still ran the codec
roundtrip on the communication stream, before the codec moved into
C1/C2 (encode) and D1/D2 (decode).  ``roundtrip(x)`` is
``decompress(compress(x))``, so where the codec runs must not change a
single output bit, under any codec, pipeline, chunk count or dead
worker.

Cases are ``codec|run|fault`` over a tier-1-cheap shape: four workers,
eight experts, 96 tokens of width 32.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.compression import get_compressor
from repro.moe import MoELayer
from repro.moe.parallel import ExpertParallelGroup

PINS = json.loads(
    (Path(__file__).with_name("parallel_pins.json")).read_text()
)

CODECS = ("zfp", "int8", "none")
RUNS = {
    "sync-r1": ("sync", 1),
    "sync-r3": ("sync", 3),
    "overlap-r4": ("overlap", 4),
}
FAULTS = {"healthy": (), "dead1": (1,)}


def output_digests(codec: str, run: str, fault: str) -> list:
    """sha256 of each worker's output bytes for one case."""
    pipeline, num_chunks = RUNS[run]
    layer = MoELayer(
        model_dim=32,
        hidden_dim=64,
        num_experts=8,
        rng=np.random.default_rng(7),
        top_k=2,
        capacity_factor=2.0,
        compressor=get_compressor(codec),
    ).eval()
    tokens = np.random.default_rng(3).standard_normal((96, 32))
    shards = np.split(tokens.astype(np.float32), 4)
    group = ExpertParallelGroup(
        layer, 4, pipeline=pipeline, num_chunks=num_chunks
    )
    group.set_dead_workers(FAULTS[fault])
    return [
        hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()
        for out in group.forward(shards)
    ]


@pytest.mark.parametrize("case", sorted(PINS))
def test_outputs_pinned(case):
    assert output_digests(*case.split("|")) == PINS[case]


def test_pins_cover_the_grid():
    """Every codec x run x fault case, and the codecs really differ."""
    assert sorted(PINS) == sorted(
        f"{c}|{r}|{f}" for c in CODECS for r in RUNS for f in FAULTS
    )
    assert len({tuple(PINS[f"{c}|sync-r1|healthy"]) for c in CODECS}) == len(
        CODECS
    )
