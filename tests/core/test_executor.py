"""Cross-validation of the event executor against the analytic model."""

import dataclasses
import math

import pytest

from repro.collectives import get_a2a
from repro.compression import get_compressor
from repro.core import (
    ModelExecutor,
    Profiler,
    TaskKind,
    get_scheduler,
)
from repro.faults import single_straggler
from repro.models import ablation_layer, ct_moe


def analytic_makespan(spec, a2a, codec, scheduler, cfg, partitions):
    profiler = Profiler(spec, get_a2a(a2a), get_compressor(codec))
    durations = profiler.profile_layer(cfg, partitions)
    return get_scheduler(scheduler).schedule(partitions, durations).makespan


def layer_pass(cfg):
    """One MoE layer of ``cfg`` without attention: the analytic model's
    scope."""
    return dataclasses.replace(cfg, num_layers=1, layer_only=True)


@pytest.mark.parametrize("scheduler", ["sequential", "chunk-pipeline", "optsche"])
@pytest.mark.parametrize("a2a", ["nccl", "pipe"])
def test_event_matches_analytic(paper_spec, scheduler, a2a):
    """The message-level execution reproduces the analytic makespan."""
    cfg = ct_moe(12)
    executor = ModelExecutor(
        paper_spec,
        get_a2a(a2a),
        get_compressor("zfp"),
        get_scheduler(scheduler),
        partitions=2,
    )
    report = executor.run(layer_pass(cfg))
    expected = analytic_makespan(
        paper_spec, a2a, "zfp", scheduler, cfg, 2
    )
    assert report.makespan == pytest.approx(expected, rel=1e-6)


def test_optsche_beats_sequential_at_event_level(paper_spec):
    cfg = ablation_layer()

    def run(scheduler):
        return ModelExecutor(
            paper_spec,
            get_a2a("pipe"),
            get_compressor("zfp"),
            get_scheduler(scheduler),
            partitions=2,
        ).run(cfg)

    assert run("optsche").makespan < run("sequential").makespan


def test_straggler_slows_the_pass_deterministically(paper_spec):
    """A straggler through OptSche + pipe A2A costs time, reproducibly."""

    def run(faults):
        return ModelExecutor(
            paper_spec,
            get_a2a("pipe"),
            get_compressor("zfp"),
            get_scheduler("optsche"),
            partitions=2,
            faults=faults,
        ).run(layer_pass(ct_moe(12))).makespan

    healthy = run(None)
    hurt = run(single_straggler(rank=0, slowdown=2.0))
    assert hurt > healthy
    assert hurt == run(single_straggler(rank=0, slowdown=2.0))


def test_task_finish_times_recorded(paper_spec):
    executor = ModelExecutor(
        paper_spec,
        get_a2a("pipe"),
        get_compressor("zfp"),
        get_scheduler("optsche"),
        partitions=2,
    )
    report = executor.run(layer_pass(ct_moe(12)))
    # (attention + 7 tasks) x 2 chunks, keyed (layer, kind, chunk).
    assert len(report.task_finish) == 16
    assert all(math.isfinite(v) for v in report.task_finish.values())
    assert max(report.task_finish.values()) == pytest.approx(report.makespan)
    comm_finish = max(
        t for (_, kind, _), t in report.task_finish.items()
        if kind in (TaskKind.A1, TaskKind.A2)
    )
    assert comm_finish <= report.makespan


def test_traffic_matches_collective_volume(paper_spec):
    cfg = ct_moe(12)
    executor = ModelExecutor(
        paper_spec,
        get_a2a("pipe"),
        get_compressor("none"),
        get_scheduler("optsche"),
        partitions=2,
    )
    report = executor.run(layer_pass(cfg))
    world = paper_spec.world_size
    # 2 A2As x 2 chunks, each moving (P-1)/P of S/2 per GPU.
    per_call = world * (cfg.a2a_bytes / 2) * (world - 1) / world
    expected = 4 * per_call
    total = report.traffic["intra_bytes"] + report.traffic["inter_bytes"]
    assert total == pytest.approx(expected)


def test_partition_validation(paper_spec):
    with pytest.raises(ValueError):
        ModelExecutor(
            paper_spec,
            get_a2a("pipe"),
            get_compressor("zfp"),
            get_scheduler("optsche"),
            partitions=0,
        )
