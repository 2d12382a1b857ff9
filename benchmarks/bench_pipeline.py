"""Sync vs overlap: ScheMoE's chunked forward, reordered but exact.

Runs the pipeline study of :mod:`repro.systems.pipeline`: one
4-worker expert-parallel MoE layer with zfp on both all-to-alls runs
its chunked forward synchronously and on the two-stream executor,
for every scheduler x partition degree r in {1, 2, 4, 8}.
``python -m repro pipeline`` prints the same text.

Reproduction target: reordering the seven tasks never changes a bit
of the output, and the bytes on the wire are the codec's nominal
compressed bytes.  The study reads no wall clock, so the sidecar is
deterministic and part of the CI sidecar drift gate; the paired
overlap speedup is timed in ``bench_hotpath.py``.
"""

from __future__ import annotations

from repro.systems.pipeline import failed_checks, render, run_pipeline_study

from _util import emit, once


def test_pipeline(benchmark):
    report = once(benchmark, run_pipeline_study)
    emit("pipeline", render(report), data=report)
    assert failed_checks(report) == []
