"""Ablation: elastic re-sharding — what recovery costs and what it buys.

Runs the two studies of :mod:`repro.systems.recovery` on the paper
testbed.  ``ablation_recovery``: parity facts on the numerical
substrate, and the re-shard bytes and simulated time after node 0 dies
and after a replacement node arrives; ``python -m repro reshard``
prints the same text.  ``ablation_recovery_quality``: Table 6's LM
loses experts {2, 3} in every MoE layer after step 225 of 450, and the
final perplexity of healthy, degraded, restored and re-initialized
training over eight seeds; restoring and re-initializing must each beat
degraded training by more than the seed spread.

Both reports are seeded or simulated-time, so they are bit-for-bit
deterministic on one BLAS kernel (the first is asserted by building it
twice), and both sidecars are part of the CI drift gate.

Run directly (~1 min on two cores, almost all of it the quality
study)::

    PYTHONPATH=src python benchmarks/bench_ablation_recovery.py

or via pytest-benchmark like the other benches.
"""

from __future__ import annotations

import json

from repro.cluster import paper_testbed
from repro.systems.recovery import (
    failed_checks,
    render,
    render_quality,
    run_quality_study,
    run_recovery_study,
)

from _util import emit, once

SPEC = paper_testbed()


def write_report(report: dict) -> None:
    emit("ablation_recovery", render(report, SPEC), data=report)


def write_quality_report(report: dict) -> None:
    emit("ablation_recovery_quality", render_quality(report), data=report)


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
    assert failed_checks(report) == [], report["parity"]["checks"]


def test_recovery_quality(benchmark):
    report = once(benchmark, run_quality_study)
    write_quality_report(report)
    assert failed_checks(report) == [], report["quartiles"]


def main() -> None:
    report = _study_twice()
    write_report(report)
    quality = run_quality_study()
    write_quality_report(quality)
    assert failed_checks(report) == [], report["parity"]["checks"]
    assert failed_checks(quality) == [], quality["quartiles"]


if __name__ == "__main__":
    main()
