"""Auto-tuning planner: calibrate, search analytically, validate top-K.

Runs the planner study of :mod:`repro.systems.planner` on the paper
testbed: a seeded probe set fits alpha-beta link and GEMM-roofline
cost models, the whole 72-point grid (scheduler x A2A x codec x
partition degree x capacity factor) on CT-MoE-12 is scored against
the fits through the *unchanged* step simulator, and only the
analytic top-K are validated with real simulations.
``python -m repro plan`` prints the same text.

Reproduction target: the recommendation lands within 5% of the
optimum of the exhaustive sweep over the same grid while simulating
strictly fewer configurations, and the whole report is
byte-deterministic (asserted below by building it twice), which is
what the CI sidecar gate diffs.
"""

from __future__ import annotations

from repro.cluster import paper_testbed
from repro.systems.planner import failed_checks, plan

from _util import emit, once

SPEC = paper_testbed()


def _plan_twice():
    report = plan(SPEC)
    # The rerun simulates everything again and must write the same
    # bytes.
    replay = plan(SPEC)
    assert report.to_json() == replay.to_json(), "planner is nondeterministic"
    return report


def test_planner(benchmark):
    report = once(benchmark, _plan_twice)
    emit("planner", "\n".join(report.summary_lines()), data=report.to_dict())
    assert failed_checks(report) == []
