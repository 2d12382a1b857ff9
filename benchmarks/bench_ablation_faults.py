"""Ablation: schedules and A2A algorithms under injected faults.

Runs the fault study of :mod:`repro.systems.faults` on the paper
testbed: a straggler GPU the scheduler did not plan for, swept across
every scheduling policy x A2A algorithm, plus a flapping inter-node
link and transient transfer failures with seeded retry/backoff.
``python -m repro faults`` prints the same text.

Everything runs in simulated time, so the output is bit-for-bit
deterministic: the same :class:`~repro.faults.FaultPlan` seed must
yield a byte-identical ``benchmarks/out/ablation_faults.json`` on
every machine and every rerun (asserted below by building the report
twice).  That sidecar is part of the deterministic drift gate in CI.

Run directly (~6 s)::

    PYTHONPATH=src python benchmarks/bench_ablation_faults.py

or via pytest-benchmark like the other benches.
"""

from __future__ import annotations

import json

from repro.cluster import paper_testbed
from repro.systems.faults import failed_checks, render, run_faults_study

from _util import emit, once

SPEC = paper_testbed()


def write_report(report: dict) -> None:
    emit("ablation_faults", render(report), data=report)


def _study_twice() -> dict:
    report = run_faults_study(SPEC)
    # Simulated time has no wall clock in it: the same fault plan must
    # reproduce the exact report, byte for byte.
    replay = run_faults_study(SPEC)
    assert json.dumps(report, sort_keys=True) == json.dumps(
        replay, sort_keys=True
    ), "fault injection is not deterministic"
    return report


def test_faults_ablation(benchmark):
    report = once(benchmark, _study_twice)
    write_report(report)
    assert failed_checks(report) == []


def main() -> None:
    report = _study_twice()
    write_report(report)
    assert failed_checks(report) == []


if __name__ == "__main__":
    main()
