"""Tests for the auto-tuning planner (calibrate -> search -> validate).

The planner's two hard guarantees: determinism (same seed + probes ->
byte-identical recommendation JSON) and fidelity (the fitted cost
models recover the presets that generated the probes, the analytic
stage reproduces the simulator on every candidate, and the
recommendation lands within a few percent of the exhaustive sweep's
optimum while simulating strictly fewer configurations).
"""

import math

import numpy as np
import pytest

from repro.cluster import (
    LinkModel,
    fit_gemm_roofline,
    fit_link_model,
    paper_testbed,
)
from repro.cluster.presets import PRESETS
from repro.core.system import simulate_model_step
from repro.systems import planner
from repro.systems.planner import (
    GRID,
    PROBE_BUDGET,
    TOP_K,
    calibrate,
    failed_checks,
    layer_recommendation,
    plan,
    predict_step,
)


@pytest.fixture(scope="module")
def report():
    """The study on the paper testbed, shared by the tests below."""
    return plan(paper_testbed())


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
    # One distinct size leaves the slope unidentifiable.
    with pytest.raises(ValueError, match="distinct"):
        fit_link_model([1e6, 1e6], [1e-3, 2e-3])
    with pytest.raises(ValueError, match="finite"):
        fit_link_model([1e5, math.nan, 1e7], [1e-3, 2e-3, 3e-3])
    # Flat data whose least-squares slope comes back a few ulps above
    # zero (how far depends on the BLAS kernel) is still flat.
    with pytest.raises(ValueError, match="beta"):
        fit_link_model([1e5, 1e6, 1e7], [7.0] * 3)
    with pytest.raises(ValueError, match="beta"):
        fit_link_model([1e3, 1e4, 1e5, 1e6], [2.0] * 4)


def test_fit_gemm_roofline_rejects_flat_data():
    for times in ([2.0] * 4, [7.0] * 4, [3e-3] * 4):
        with pytest.raises(ValueError, match="beta"):
            fit_gemm_roofline([1e9, 4e9, 2e10, 8e10], times)


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
    calib = calibrate(spec)
    assert calib.num_probes <= PROBE_BUDGET
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


def test_calibration_budget_too_small_raises(monkeypatch):
    # 4 (a2a, codec) pairs x 5 + 5 GEMM points = 25 probes.
    monkeypatch.setattr(planner, "PROBE_BUDGET", 24)
    with pytest.raises(ValueError, match="PROBE_BUDGET=24"):
        calibrate(paper_testbed())


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_predict_step_matches_the_simulator_on_every_candidate(preset):
    """The analytic stage reproduces the event simulation everywhere,
    not only at the recommendation: the substrate's costs are affine,
    so the fits are exact."""
    spec = PRESETS[preset]()
    calibration = calibrate(spec)
    for cand in GRID.candidates():
        est = predict_step(cand, spec, calibration)
        real = simulate_model_step(cand.config(), spec, cand.policy())
        assert est.oom == real.oom, cand.label
        if not real.oom:
            assert est.total_s == pytest.approx(real.total_s, rel=1e-9)


# -- the full planner ---------------------------------------------------------


def test_plan_deterministic_and_within_regret_bound(report):
    """Same seed -> byte-identical JSON; recommendation within 5% of
    the exhaustive optimum while simulating strictly fewer configs."""
    assert plan(paper_testbed()).to_json() == report.to_json()
    assert report.simulated == len(report.validated) == TOP_K < GRID.size
    assert np.isfinite(report.measured_s)
    assert report.regret["exhaustive_simulated"] == GRID.size
    assert report.regret["regret_pct"] <= 5.0
    assert abs(report.prediction_error_pct) <= 5.0
    assert failed_checks(report) == []


def test_recommendation_includes_layer_knobs(report):
    rec = report.recommendation()
    layer = rec["layer"]
    assert layer == layer_recommendation(rec["partitions"])
    assert set(layer) == {"pipeline", "num_chunks"}
    assert layer["num_chunks"] == rec["partitions"]
    assert layer["pipeline"] == (
        "overlap" if rec["partitions"] > 1 else "sync"
    )
