"""Tests for the auto-tuning planner (calibrate -> search -> validate).

The planner's two hard guarantees: determinism (same seed + probes ->
byte-identical recommendation JSON) and fidelity (the fitted cost
models recover the presets that generated the probes, and the
recommendation lands within a few percent of the exhaustive sweep's
optimum while simulating strictly fewer configurations).
"""

import numpy as np
import pytest

from repro.cluster import (
    LinkModel,
    fit_gemm_roofline,
    fit_link_model,
    paper_testbed,
)
from repro.models import ct_moe
from repro.systems import PlanSpace, calibrate, plan
from repro.systems.planner import layer_recommendation

#: A small grid so each test runs a handful of simulations at most.
TINY = PlanSpace(
    schedulers=("sequential", "optsche"),
    a2a_algorithms=("nccl", "pipe"),
    compressors=("none",),
    partition_degrees=(1, 2),
    capacity_factors=(1.0,),
)


# -- cost-model fits ----------------------------------------------------------


def test_fit_link_model_recovers_preset():
    """Affine synthetic data -> the exact generating LinkModel."""
    link = LinkModel("truth", latency_s=25e-6, bandwidth_bps=12.5e9)
    sizes = [1e5, 7e5, 3e6, 1.6e7, 6.4e7]
    times = [link.transfer_time(s) for s in sizes]
    fitted = fit_link_model(sizes, times)
    assert fitted.latency_s == pytest.approx(link.latency_s, rel=1e-6)
    assert fitted.bandwidth_bps == pytest.approx(
        link.bandwidth_bps, rel=1e-6
    )


def test_fit_link_model_rejects_flat_data():
    with pytest.raises(ValueError, match="beta"):
        fit_link_model([1e5, 1e6, 1e7], [2.0, 2.0, 2.0])
    with pytest.raises(ValueError, match="two"):
        fit_link_model([1e5], [2.0])


def test_fit_gemm_roofline_reproduces_gemm_time():
    """The fitted GpuModel reproduces the generator's timing curve.

    gemm_time is exactly affine in flops (the saturating efficiency
    cancels), so the fit matches the generating model at *any* flop
    count, not just the probed ones.
    """
    gpu = paper_testbed().gpu
    probe = [1e9, 4e9, 2e10, 8e10, 3e11]
    times = [gpu.gemm_time(f, tensor_core=True) for f in probe]
    fitted = fit_gemm_roofline(
        probe, times, half_saturation_flops=gpu.half_saturation_flops
    )
    for f in [5e8, 2.5e9, 1e11, 7e11]:  # off-probe flop counts
        assert fitted.gemm_time(f) == pytest.approx(
            gpu.gemm_time(f, tensor_core=True), rel=1e-9
        )


# -- calibration --------------------------------------------------------------


def test_calibration_recovers_a2a_affinity():
    """Fitted alpha-beta A2A models match the profiler's measurements
    at unprobed payload sizes (the simulated A2A is affine in bytes)."""
    from repro.collectives import get_a2a
    from repro.compression import get_compressor
    from repro.core.profiler import Profiler

    spec = paper_testbed()
    calib = calibrate(ct_moe(12), spec, TINY, seed=0)
    for (a2a_name, codec_name), model in calib.a2a_models.items():
        profiler = Profiler(
            spec,
            a2a=get_a2a(a2a_name),
            compressor=get_compressor(codec_name),
        )
        for wire in (2.2e6, 1.3e7, 5.5e7):
            truth = profiler.measure_a2a_seconds(wire)
            if np.isfinite(truth):
                assert model.predict(wire) == pytest.approx(
                    truth, rel=0.02
                )


def test_calibration_budget_caps_probes():
    cfg, spec = ct_moe(12), paper_testbed()
    free = calibrate(cfg, spec, TINY, seed=0)
    capped = calibrate(cfg, spec, TINY, seed=0, budget=12)
    assert capped.num_probes <= 12 < free.num_probes


def test_calibration_budget_too_small_raises():
    with pytest.raises(ValueError, match="budget"):
        # 2 pairs * 2 + 2 = 6 is the floor for TINY.
        calibrate(ct_moe(12), paper_testbed(), TINY, seed=0, budget=5)


def test_unknown_names_raise_before_probing():
    with pytest.raises(KeyError, match="no-such-a2a"):
        plan(
            ct_moe(12),
            paper_testbed(),
            space=PlanSpace(a2a_algorithms=("no-such-a2a",)),
            processes=1,
        )
    with pytest.raises(KeyError, match="no-such-scheduler"):
        plan(
            ct_moe(12),
            paper_testbed(),
            space=PlanSpace(schedulers=("no-such-scheduler",)),
            processes=1,
        )


# -- the full planner ---------------------------------------------------------


def test_plan_deterministic_and_within_regret_bound():
    """Same seed -> byte-identical JSON; recommendation within 5% of
    the exhaustive optimum while simulating strictly fewer configs."""
    cfg, spec = ct_moe(12), paper_testbed()

    def run():
        return plan(
            cfg,
            spec,
            space=TINY,
            seed=0,
            budget=20,
            top_k=3,
            processes=1,
            regret=True,
        )

    a = run()
    b = run()
    assert a.to_json() == b.to_json()
    assert a.simulated == 3 < TINY.size
    assert a.regret is not None
    assert a.regret["regret_pct"] <= 5.0
    assert abs(a.prediction_error_pct) <= 5.0


def test_plan_works_without_cache():
    report = plan(
        ct_moe(12), paper_testbed(), space=TINY, top_k=2, processes=1
    )
    assert report.simulated == 2
    assert np.isfinite(report.measured_s)


def test_recommendation_includes_layer_knobs():
    report = plan(
        ct_moe(12), paper_testbed(), space=TINY, top_k=2, processes=1
    )
    rec = report.recommendation()
    layer = rec["layer"]
    assert layer == layer_recommendation(rec["partitions"])
    assert set(layer) == {"dispatch_mode", "pipeline", "num_chunks"}
    assert layer["dispatch_mode"] == "sparse"
    assert layer["num_chunks"] == rec["partitions"]
    assert layer["pipeline"] == (
        "overlap" if rec["partitions"] > 1 else "sync"
    )


def test_plan_space_validation():
    with pytest.raises(ValueError, match="empty"):
        PlanSpace(schedulers=())
    with pytest.raises(ValueError, match=">= 1"):
        PlanSpace(partition_degrees=(0,))
    with pytest.raises(ValueError, match="positive"):
        PlanSpace(capacity_factors=(0.0,))
    with pytest.raises(ValueError, match="top_k"):
        plan(ct_moe(12), paper_testbed(), space=TINY, top_k=0)
