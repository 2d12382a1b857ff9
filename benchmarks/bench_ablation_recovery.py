"""Ablation: elastic re-sharding — recover and rebalance vs train degraded.

Runs the kill → recover → scale-up study of
:mod:`repro.systems.recovery` on the paper testbed: parity facts on the
numerical substrate, and the reshard-vs-degraded pricing after node 0
dies on the timing substrate.  ``python -m repro reshard`` prints the
same text.

Everything is seeded or simulated-time, so the report is bit-for-bit
deterministic (asserted by building it twice), and the
``benchmarks/out/ablation_recovery.json`` sidecar is part of the CI
drift gate.

Run directly (~1 s)::

    PYTHONPATH=src python benchmarks/bench_ablation_recovery.py

or via pytest-benchmark like the other benches.
"""

from __future__ import annotations

import json

from repro.cluster import paper_testbed
from repro.systems.recovery import failed_checks, render, run_recovery_study

from _util import emit, once

SPEC = paper_testbed()


def _assert_acceptance(report: dict) -> None:
    assert failed_checks(report) == [], report["parity"]["checks"]
    # Degraded training does less work per step; the honest time-only
    # call is "continue" — quality is why you reshard anyway.
    pri = report["pricing"]
    assert pri["degraded_step_s"] <= pri["recovered_step_s"] + 1e-12
    # Rebalancing onto the replacement node recovers the healthy rate.
    assert pri["scale_back"]["reshard_step_s"] <= pri["recovered_step_s"]


def write_report(report: dict) -> None:
    emit("ablation_recovery", render(report, SPEC), data=report)


def _study_twice() -> dict:
    report = run_recovery_study(SPEC)
    # Seeded numerics + simulated time: the same scenario must
    # reproduce the exact report, byte for byte.
    replay = run_recovery_study(SPEC)
    assert json.dumps(report, sort_keys=True) == json.dumps(
        replay, sort_keys=True
    ), "recovery study is not deterministic"
    return report


def test_recovery_ablation(benchmark):
    report = once(benchmark, _study_twice)
    write_report(report)
    _assert_acceptance(report)


def main() -> None:
    report = _study_twice()
    write_report(report)
    _assert_acceptance(report)


if __name__ == "__main__":
    main()
