"""Ablation: elastic re-sharding — recover and rebalance vs train degraded.

Runs the kill → recover → scale-up study of
:mod:`repro.systems.recovery` on the paper testbed: parity facts on the
numerical substrate, and the reshard-vs-degraded pricing after node 0
dies on the timing substrate.  ``python -m repro reshard`` prints the
same text.

Everything is seeded or simulated-time, so the report is bit-for-bit
deterministic (asserted by building it twice).  The ``recovery``
section is merged into the root ``BENCH_faults.json`` artifact —
preserving the fault grid written by ``bench_ablation_faults`` — and
the ``benchmarks/out/ablation_recovery.json`` sidecar joins the CI
drift gate.

Run directly (~1 s)::

    PYTHONPATH=src python benchmarks/bench_ablation_recovery.py

or via pytest-benchmark like the other benches.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.cluster import paper_testbed
from repro.systems.recovery import failed_checks, render, run_recovery_study

from _util import emit, once

ROOT_JSON = Path(__file__).resolve().parent.parent / "BENCH_faults.json"
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
    # The root fault artifact gains a "recovery" section; everything
    # bench_ablation_faults wrote there is preserved.
    if ROOT_JSON.exists():
        merged = json.loads(ROOT_JSON.read_text(encoding="utf-8"))
        merged["recovery"] = report
        ROOT_JSON.write_text(
            json.dumps(merged, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )


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
