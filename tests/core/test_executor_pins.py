"""Bit-exact pins of the event-level executor.

``executor_pins.json`` holds one fingerprint per case: the makespan as
``float.hex`` and the cluster's traffic counters.  They were recorded
with the two executors :class:`ModelExecutor` replaced — the
per-layer ``EventExecutor`` (any scheduler, one layer, no attention)
for the ``layer`` cases and the OptSche-only multi-layer executor for
the ``model`` cases — so any change to what is submitted, or in which
order, shows up here.  Order matters even where times tie: transient
fault verdicts hash a global transfer-attempt index.

Cases run on the 2x2 ``small_spec`` cluster to keep the grid cheap.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.collectives import get_a2a
from repro.compression import get_compressor
from repro.core import ModelExecutor, get_scheduler
from repro.faults import FaultPlan, TransientFaults, single_straggler
from repro.models import bert_large_moe, ct_moe

PINS = json.loads(
    (Path(__file__).with_name("executor_pins.json")).read_text()
)

FAULTS = {
    "healthy": None,
    "straggler": single_straggler(rank=0, slowdown=2.0),
    "transient": FaultPlan(
        seed=7, transient=TransientFaults(probability=0.2)
    ),
}
#: Keyed as in ``executor_pins.json``; the BERT key names the two-layer
#: variant the pins were recorded on.
MODELS = {
    "ct_moe(3)": ct_moe(3),
    "bert_large_moe().with_layers(2)": dataclasses.replace(
        bert_large_moe(), num_layers=2
    ),
}
LAYER = dataclasses.replace(ct_moe(12), num_layers=1, layer_only=True)


def fingerprint(report):
    return [report.makespan.hex(), report.traffic]


def scheduler(name):
    policy = get_scheduler(name)
    if name == "brute-force":
        # r > 2 samples interleavings; a small sample keeps the grid
        # cheap.  The pins fix the executor, not the search.
        policy.sample_count = 50
    return policy


@pytest.mark.parametrize("case", sorted(PINS["layer"]))
def test_layer_pass_pinned(small_spec, case):
    """Scheduler x A2A x fault plan x r, one layer without attention."""
    sched, a2a, fault, r = case.split("|")
    report = ModelExecutor(
        small_spec,
        get_a2a(a2a),
        get_compressor("zfp"),
        scheduler(sched),
        partitions=int(r),
        faults=FAULTS[fault],
    ).run(LAYER)
    assert fingerprint(report) == PINS["layer"][case]


@pytest.mark.parametrize("case", sorted(PINS["model"]))
def test_model_pass_pinned(small_spec, case):
    """Multi-layer OptSche passes with attention, both layer modes."""
    model, a2a, codec, r, mode = case.split("|")
    report = ModelExecutor(
        small_spec,
        get_a2a(a2a),
        get_compressor(codec),
        get_scheduler("optsche"),
        partitions=int(r),
    ).run(MODELS[model], mode=mode)
    assert fingerprint(report) == PINS["model"][case]


def test_pins_cover_the_grid():
    """Every scheduler, A2A, fault plan and r in {1, 2, 4}."""
    layer = [case.split("|") for case in PINS["layer"]]
    assert len(layer) == 4 * 3 * 3 * 3
    assert {c[0] for c in layer} == {
        "sequential", "chunk-pipeline", "optsche", "brute-force"
    }
    assert {c[3] for c in layer} == {"1", "2", "4"}
    assert {c[2] for c in layer} == set(FAULTS)
    assert all(
        traffic["transient_retries"] > 0
        for case, (_, traffic) in PINS["layer"].items()
        if "|transient|" in case
    )
    model = [case.split("|") for case in PINS["model"]]
    assert {c[0] for c in model} == set(MODELS)
    assert {c[4] for c in model} == {"layer-barrier", "chunked"}
