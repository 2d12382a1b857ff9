"""Lockstep all-to-alls: one stream item per rank, woken round by round.

NCCL-A2A and Pipe-A2A post one item per rank per stream class; the
last rank to finish a round wakes all ranks into the next one in rank
order.  These tests pin that schedule bit-identical to the
per-submission fan-in (``legacy_lockstep.py``), healthy, under fault
plans and behind ``ModelExecutor``'s stream gates, and bound the
entries and processes one all-to-all creates.
"""

import pytest

from repro.cluster.engine import Engine
from repro.cluster.presets import nvlink_dgx, paper_testbed
from repro.collectives import base, get_a2a, measure_a2a
from repro.compression import get_compressor
from repro.core import ModelExecutor, get_scheduler
from repro.core.model_executor import MODES
from repro.core.system import simulate_model_step
from repro.faults import FaultPlan, TransientFaults, flapping_link
from repro.models.configs import ct_moe
from repro.systems import ALL_POLICIES

from .legacy_lockstep import LEGACY

SPECS = {
    "testbed-8x4": paper_testbed(),
    "testbed-4x8": paper_testbed(4, 8),
    "testbed-1x4": paper_testbed(1, 4),
    "testbed-8x1": paper_testbed(8, 1),
    "nvlink-dgx": nvlink_dgx(),
}
SIZES = [1e3, 1e5, 4e6, 3.3e7, 1.2e8]


def _fingerprint(result):
    seconds = "inf" if result.oom else result.seconds.hex()
    return (seconds, result.peak_bytes_per_gpu, result.oom, result.stats)


@pytest.mark.parametrize("algo", ["nccl", "pipe"])
@pytest.mark.parametrize("spec_name", sorted(SPECS))
def test_barrier_matches_fan_in(algo, spec_name):
    spec = SPECS[spec_name]
    # A payload of one device memory needs twice that for in + out: OOM.
    for size in SIZES + [spec.gpu.memory_bytes]:
        new = measure_a2a(get_a2a(algo), spec, size)
        old = measure_a2a(LEGACY[algo](), spec, size)
        assert _fingerprint(new) == _fingerprint(old), (spec_name, size)
    assert new.oom  # the largest size exercises the OOM report


@pytest.mark.parametrize("algo", ["nccl", "pipe"])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_barrier_matches_fan_in_under_faults(algo, seed):
    """Transient verdicts hash a global attempt index, so a reordering
    of same-time transfer attempts would change the result."""
    plan = FaultPlan(
        seed=seed,
        links=flapping_link(0, "nic", 2e-3, 0.4, 20)
        + flapping_link(1, "fabric", 1.5e-3, 0.3, 20),
        transient=TransientFaults(probability=0.05),
    )
    spec = paper_testbed()
    for size in [1e5, 4e6, 3.3e7]:
        new = measure_a2a(get_a2a(algo), spec, size, faults=plan)
        old = measure_a2a(LEGACY[algo](), spec, size, faults=plan)
        assert _fingerprint(new) == _fingerprint(old), size
        assert new.stats["transient_failures"] > 0


def test_model_step_matches_fan_in(monkeypatch):
    cfg, spec = ct_moe(12), paper_testbed()
    new = {
        name: simulate_model_step(cfg, spec, policy).total_s
        for name, policy in ALL_POLICIES.items()
    }
    for name, cls in LEGACY.items():
        monkeypatch.setitem(base._REGISTRY, name, cls)
    old = {
        name: simulate_model_step(cfg, spec, policy).total_s
        for name, policy in ALL_POLICIES.items()
    }
    assert {k: v.hex() for k, v in new.items()} == {
        k: v.hex() for k, v in old.items()
    }


@pytest.mark.parametrize("algo", ["nccl", "pipe"])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("r", [1, 2])
def test_executor_matches_fan_in_under_faults(algo, mode, r):
    """Two layers at P=32, each A2A task behind the executor's stream
    gates; Pipe runs its intra and inter chains concurrently."""
    plan = FaultPlan(seed=5, transient=TransientFaults(probability=0.05))
    reports = [
        ModelExecutor(
            paper_testbed(),
            a2a,
            get_compressor("zfp"),
            get_scheduler("optsche"),
            partitions=r,
            faults=plan,
        ).run(ct_moe(2), mode)
        for a2a in (get_a2a(algo), LEGACY[algo]())
    ]
    new, old = (
        (rep.makespan.hex(), rep.task_finish, rep.traffic) for rep in reports
    )
    assert new == old
    assert reports[0].traffic["transient_failures"] > 0


class CountingEngine(Engine):
    """An engine counting every entry it queues and every process."""

    def __init__(self):
        super().__init__()
        self.scheduled = 0
        self.processes = 0

    def _schedule_at(self, when, event):
        self.scheduled += 1
        super()._schedule_at(when, event)

    def _schedule_callback(self, cb, ev):
        self.scheduled += 1
        super()._schedule_callback(cb, ev)

    def process(self, gen, name=""):
        self.processes += 1
        return super().process(gen, name)


#: Streams one all-to-all posts to per rank.
STREAM_CLASSES = {"nccl": 1, "pipe": 2}


@pytest.mark.parametrize("algo", ["nccl", "pipe"])
@pytest.mark.parametrize("shape", [(8, 4), (8, 8)], ids=["P32", "P64"])
def test_a2a_queues_quadratic_events(algo, shape):
    """At most 4·P² entries per all-to-all and one process per rank per
    stream; a process per transfer queues ~8·P², per-submission fan-in
    O(P³)."""
    spec = paper_testbed(*shape)
    engine = CountingEngine()
    result = measure_a2a(get_a2a(algo), spec, 4e6, engine=engine)
    assert not result.oom and result.seconds > 0
    assert engine.scheduled <= 4 * spec.world_size**2
    assert engine.processes <= STREAM_CLASSES[algo] * spec.world_size
