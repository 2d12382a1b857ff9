"""Auto-tuning planner: calibrate, search analytically, validate top-K.

The planner (:mod:`repro.systems.planner`) replaces an exhaustive
sweep with a three-stage loop: a budgeted probe set fits alpha-beta
link and GEMM-roofline cost models, the full joint knob space
(scheduler x A2A x codec x partition degree x capacity factor) is
scored against the fitted models through the *unchanged* step
simulator (a :class:`~repro.systems.planner.FittedProfiler` answers
task measurements from the fits), and only the analytic top-K are
validated with real simulations.

Reproduction target: on CT-MoE-12 + the paper testbed the planner must
recommend a configuration within 5% of the optimum of the exhaustive
sweep over the same 72-point grid while simulating strictly fewer
configurations — and the whole report must be byte-deterministic (same
seed + probes -> identical recommendation JSON), which is what the CI
sidecar gate diffs.
"""

from __future__ import annotations

from repro.cluster import paper_testbed
from repro.models import ct_moe
from repro.systems import PlanSpace, plan

from _util import emit, once

#: 3 schedulers x 2 A2A x 2 codecs x 3 degrees x 2 capacity factors.
GRID = PlanSpace(
    schedulers=("sequential", "chunk-pipeline", "optsche"),
    a2a_algorithms=("nccl", "pipe"),
    compressors=("none", "zfp"),
    partition_degrees=(1, 2, 4),
    capacity_factors=(1.0, 1.2),
)


def run_planner(processes=None):
    def one_run():
        return plan(
            ct_moe(12),
            paper_testbed(),
            space=GRID,
            seed=0,
            budget=40,
            top_k=6,
            processes=processes,
            regret=True,
        )

    report = one_run()
    # Same seed + probes -> byte-identical recommendation JSON (the
    # second run simulates everything again).
    rerun = one_run()
    assert report.to_json() == rerun.to_json(), "planner is nondeterministic"
    return report


def test_planner(benchmark):
    report = once(benchmark, run_planner)
    emit(
        "planner",
        "\n".join(report.summary_lines()),
        data=report.to_dict(),
    )
    assert report.simulated < report.space.size  # fewer sims than sweep
    assert report.regret is not None
    assert report.regret["regret_pct"] <= 5.0  # within 5% of the optimum
    assert abs(report.prediction_error_pct) <= 5.0
