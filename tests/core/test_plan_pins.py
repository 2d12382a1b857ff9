"""Bit-exact pins of :meth:`ScheMoELayer.plan`.

``plan_pins.json`` holds one fingerprint per case: the chosen degree
r, the four per-chunk task durations, the forward and backward
makespans and every task's (start, end) on the forward timeline, all
floats as ``float.hex``.  They were recorded while the layer still ran
its own partition-candidate loop, before ``plan`` became
``simulate_model_step`` on a layer-only config, so any drift in what
the layer profiles, which degree wins or how the tasks are scheduled
shows up here.

The grid is r in {1, 2, 4, "auto"} x codec x A2A x scheduler x two
shapes.  On the ``large`` shape the A2A runs out of GPU memory for
``1dh`` (and for unchunked raw payloads), so infinite durations and
makespans are pinned too.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import ScheMoELayer

PINS = json.loads((Path(__file__).with_name("plan_pins.json")).read_text())

SHAPES = {
    "small": dict(model_dim=64, hidden_dim=128, batch_per_gpu=4, seq_len=128),
    "large": dict(
        model_dim=256, hidden_dim=512, batch_per_gpu=128, seq_len=32768
    ),
}


def fingerprint(plan):
    d = plan.durations
    return {
        "r": plan.partitions,
        "durations": [
            d.compress.hex(), d.a2a.hex(), d.decompress.hex(), d.expert.hex()
        ],
        "forward": plan.forward_s.hex(),
        "backward": plan.backward_s.hex(),
        "timeline": sorted(
            [task.kind.name, task.chunk, start.hex(), end.hex()]
            for task, (start, end) in plan.forward.timeline.items()
        ),
    }


@pytest.mark.parametrize("case", sorted(PINS))
def test_layer_plan_pinned(paper_spec, case):
    shape, codec, a2a, scheduler, r = case.split("|")
    dims = SHAPES[shape]
    layer = ScheMoELayer(
        dims["model_dim"],
        dims["hidden_dim"],
        32,
        np.random.default_rng(0),
        compress_name=codec,
        comm_name=a2a,
        scheduler_name=scheduler,
        partitions=r if r == "auto" else int(r),
    )
    plan = layer.plan(paper_spec, dims["batch_per_gpu"], dims["seq_len"])
    assert len(plan.forward.timeline) == 7 * plan.partitions
    assert fingerprint(plan) == PINS[case]


def test_pins_cover_the_grid():
    cases = [case.split("|") for case in PINS]
    assert len(cases) == 2 * 2 * 3 * 3 * 4
    assert {c[0] for c in cases} == set(SHAPES)
    assert {c[3] for c in cases} == {"optsche", "sequential", "chunk-pipeline"}
    assert {c[4] for c in cases} == {"1", "2", "4", "auto"}
    # The large shape runs 1dh out of memory: infinite makespans.
    assert PINS["large|none|1dh|optsche|auto"]["forward"] == "inf"
    assert all(
        PINS[f"small|{codec}|1dh|optsche|auto"]["forward"] != "inf"
        for codec in ("zfp", "none")
    )
