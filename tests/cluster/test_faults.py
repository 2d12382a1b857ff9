"""Fault-injection layer: plans, injector math, cluster behaviour."""

import math

import pytest

from repro.cluster import SimCluster, paper_testbed
from repro.cluster.costmodel import LinkModel
from repro.collectives import available_a2a, get_a2a
from repro.collectives.base import measure_a2a
from repro.faults import (
    FaultError,
    FaultInjector,
    FaultPlan,
    LinkFault,
    StragglerFault,
    TransientFaults,
    flapping_link,
    single_straggler,
)

SPEC = paper_testbed()


# -- plan validation --------------------------------------------------------
def test_plan_validation_rejects_bad_fields():
    with pytest.raises(ValueError):
        StragglerFault(rank=-1, slowdown=2.0)
    with pytest.raises(ValueError):
        StragglerFault(rank=0, slowdown=0.5)  # faster than healthy
    with pytest.raises(ValueError):
        LinkFault(node=0, link="nic", start_s=3.0, end_s=1.0)
    with pytest.raises(ValueError):
        LinkFault(node=0, link="warp-core")
    with pytest.raises(ValueError):
        LinkFault(node=0, link="nic", bandwidth_factor=0.0)  # infinite stall
    with pytest.raises(ValueError):
        LinkFault(node=0, link="nic", bandwidth_factor=1.5)
    with pytest.raises(ValueError):
        TransientFaults(probability=1.0)  # would never succeed
    with pytest.raises(ValueError):
        TransientFaults(probability=0.1, backoff_multiplier=0.5)


def test_injector_rejects_out_of_range_targets():
    with pytest.raises(ValueError):
        FaultInjector(
            single_straggler(SPEC.world_size, 2.0),
            SPEC.world_size,
            SPEC.num_nodes,
        )
    plan = FaultPlan(links=(LinkFault(node=SPEC.num_nodes, link="nic"),))
    with pytest.raises(ValueError):
        FaultInjector(plan, SPEC.world_size, SPEC.num_nodes)


def test_empty_plan_is_empty():
    assert FaultPlan().is_empty()
    assert not single_straggler(0, 2.0).is_empty()
    assert not FaultPlan(transient=TransientFaults(0.1)).is_empty()


def test_flapping_link_windows():
    windows = flapping_link(
        0, "fabric", period_s=1.0, down_fraction=0.25, cycles=3
    )
    assert [(w.start_s, w.end_s) for w in windows] == [
        (0.0, 0.25),
        (1.0, 1.25),
        (2.0, 2.25),
    ]


# -- injector math ----------------------------------------------------------
def test_overlapping_stragglers_multiply():
    plan = FaultPlan(
        stragglers=(
            StragglerFault(rank=0, slowdown=2.0),
            StragglerFault(rank=0, slowdown=3.0),
        )
    )
    inj = FaultInjector(plan, SPEC.world_size, SPEC.num_nodes)
    assert inj.compute_finish(0, 0.0, 1.0) == pytest.approx(6.0)


def test_link_fault_piecewise():
    link = LinkModel(name="t", latency_s=0.5, bandwidth_bps=100.0)
    plan = FaultPlan(
        links=(
            LinkFault(
                node=0,
                link="nic",
                bandwidth_factor=0.5,
                start_s=0.0,
                end_s=2.0,
            ),
        )
    )
    inj = FaultInjector(plan, SPEC.world_size, SPEC.num_nodes)
    # 100 B at t=0: latency 0.5, drain starts at 0.5; [0.5,2) at 50 B/s
    # moves 75 B, remaining 25 B at 100 B/s -> 2.25.
    assert inj.transfer_finish("nic", 0, 0.0, 100.0, link) == pytest.approx(
        2.25
    )
    # Outside the window: plain alpha-beta.
    assert inj.transfer_finish("nic", 0, 5.0, 100.0, link) == pytest.approx(
        5.0 + link.transfer_time(100.0)
    )
    # Other node / other link class: untouched.
    assert inj.transfer_finish("nic", 1, 0.0, 100.0, link) == pytest.approx(
        link.transfer_time(100.0)
    )
    assert inj.transfer_finish("fabric", 0, 0.0, 100.0, link) == pytest.approx(
        link.transfer_time(100.0)
    )


def test_link_fault_node_wildcard():
    link = LinkModel(name="t", latency_s=0.0, bandwidth_bps=100.0)
    plan = FaultPlan(links=(LinkFault(node=-1, link="nic", bandwidth_factor=0.5),))
    inj = FaultInjector(plan, SPEC.world_size, SPEC.num_nodes)
    for node in range(SPEC.num_nodes):
        assert inj.transfer_finish("nic", node, 0.0, 100.0, link) == 2.0


def test_transient_decisions_are_seeded_and_stateless():
    plan = FaultPlan(seed=9, transient=TransientFaults(probability=0.3))
    a = FaultInjector(plan, SPEC.world_size, SPEC.num_nodes)
    b = FaultInjector(plan, SPEC.world_size, SPEC.num_nodes)
    seq_a = [a.transfer_attempt_fails() for _ in range(200)]
    seq_b = [b.transfer_attempt_fails() for _ in range(200)]
    assert seq_a == seq_b
    assert any(seq_a) and not all(seq_a)
    # A different seed gives a different sequence.
    other = FaultInjector(
        FaultPlan(seed=10, transient=TransientFaults(probability=0.3)),
        SPEC.world_size,
        SPEC.num_nodes,
    )
    assert [other.transfer_attempt_fails() for _ in range(200)] != seq_a


# -- cluster behaviour ------------------------------------------------------
@pytest.mark.parametrize("name", available_a2a())
def test_empty_plan_is_bit_identical(name):
    clean = measure_a2a(get_a2a(name), SPEC, 4e6)
    empty = measure_a2a(get_a2a(name), SPEC, 4e6, faults=FaultPlan())
    assert empty.seconds == clean.seconds
    assert empty.stats == clean.stats
    assert empty.peak_bytes_per_gpu == clean.peak_bytes_per_gpu


def test_link_fault_slows_collective():
    plan = FaultPlan(links=(LinkFault(node=-1, link="nic", bandwidth_factor=0.25),))
    clean = measure_a2a(get_a2a("pipe"), SPEC, 4e6)
    hurt = measure_a2a(get_a2a("pipe"), SPEC, 4e6, faults=plan)
    assert hurt.seconds > clean.seconds


def test_straggler_slows_compute_only():
    plan = single_straggler(0, 3.0)
    cluster = SimCluster(SPEC, faults=plan)
    done = {}

    def kernel(rank):
        yield from cluster.compute(rank, 1.0)
        done[rank] = cluster.engine.now

    cluster.engine.process(kernel(0))
    cluster.engine.process(kernel(1))
    cluster.engine.run()
    assert done[0] == pytest.approx(3.0)
    assert done[1] == pytest.approx(1.0)


def test_transient_retries_run_and_replay_identically():
    plan = FaultPlan(
        seed=7, transient=TransientFaults(probability=0.2, max_retries=10)
    )
    r1 = measure_a2a(get_a2a("pipe"), SPEC, 1e6, faults=plan)
    r2 = measure_a2a(get_a2a("pipe"), SPEC, 1e6, faults=plan)
    assert r1.stats["transient_failures"] > 0
    assert r1.seconds == r2.seconds
    assert r1.stats == r2.stats
    # The clean run is strictly faster and reports no failure counters.
    clean = measure_a2a(get_a2a("pipe"), SPEC, 1e6)
    assert "transient_failures" not in clean.stats
    assert r1.seconds > clean.seconds


def test_transient_budget_exhaustion_raises_fault_error():
    plan = FaultPlan(
        seed=0,
        transient=TransientFaults(probability=0.95, max_retries=1),
    )
    cluster = SimCluster(SPEC, faults=plan)
    procs = [
        cluster.engine.process(cluster.transfer(0, SPEC.gpus_per_node, 1e6))
        for _ in range(20)
    ]
    with pytest.raises(FaultError, match="retry budget"):
        cluster.engine.run()
    assert procs  # the error came from a transfer process


def test_backoff_spends_simulated_time():
    # One transfer, guaranteed-ish to fail a few times: high p, large
    # budget.  Its completion time must include backoff delays beyond
    # pure link occupancy.
    plan = FaultPlan(
        seed=0,
        transient=TransientFaults(
            probability=0.9, max_retries=50, backoff_s=1.0
        ),
    )
    cluster = SimCluster(SPEC, faults=plan)
    cluster.engine.process(cluster.transfer(0, SPEC.gpus_per_node, 1e3))
    end = cluster.engine.run()
    failures = cluster.stats["transient_failures"]
    assert failures >= 1
    # Exponential backoff: total wait >= backoff_s * (2^k - 1).
    assert end >= 2.0**failures - 1.0


def test_self_transfer_never_faulted():
    plan = FaultPlan(
        seed=1,
        links=(LinkFault(node=-1, link="fabric", bandwidth_factor=0.01),),
        transient=TransientFaults(probability=0.99, max_retries=0),
    )
    clean = SimCluster(SPEC)
    hurt = SimCluster(SPEC, faults=plan)
    for cluster in (clean, hurt):
        cluster.engine.process(cluster.transfer(0, 0, 1e6))
    assert clean.engine.run() == hurt.engine.run()


def test_stalled_work_with_no_recovery_raises():
    # A zero-rate stall cannot arise from validated plans
    # (bandwidth_factor > 0), but the integrator guards against it.
    from repro.faults import _piecewise_finish

    with pytest.raises(FaultError, match="stalls forever"):
        _piecewise_finish(0.0, 1.0, lambda t: 0.0, [])


def test_straggler_slowdown_applies_for_the_whole_run():
    inj = FaultInjector(
        single_straggler(2, 2.0), SPEC.world_size, SPEC.num_nodes
    )
    assert inj.compute_finish(2, 0.0, 4.0) == 8.0
    assert inj.compute_finish(2, 1e6, 3.0) == pytest.approx(1e6 + 6.0)
    # Other ranks: untouched.
    assert inj.compute_finish(1, 0.0, 4.0) == 4.0


def test_backoff_delay_saturates_instead_of_overflowing():
    # Regression: a pathological retry budget must never push the
    # exponent far enough to overflow float64 to inf (which would halt
    # the simulated clock forever on a single retry loop).
    tf = TransientFaults(
        probability=0.5, max_retries=100_000, backoff_s=1e-4,
        backoff_multiplier=2.0,
    )
    capped = tf.backoff_delay(TransientFaults.BACKOFF_EXPONENT_CAP)
    assert math.isfinite(capped)
    assert tf.backoff_delay(10_000) == capped
    assert tf.backoff_delay(100_000_000) == capped
    # Below the cap the historical exponential schedule is unchanged.
    for attempt in range(5):
        assert tf.backoff_delay(attempt) == pytest.approx(
            1e-4 * 2.0**attempt
        )
