"""Inference fast path: autograd-free forward with pooled buffers.

Runs the inference study of :mod:`repro.systems.inference`: the
forward-only path (``inference_mode()`` plus the arena's pooled
buffers) must be bit-identical to the training-tape forward of the
same ``eval()`` layer, build no tape, and stop missing the buffer pool
after its warm-up step, for the top-k and the expert-choice gate.
``python -m repro infer`` prints the same text.

Every check is deterministic (booleans and allocation counters, no
wall-clock), so the ``benchmarks/out/`` sidecar participates in the CI
sidecar drift gate.  The timed claim on the same shape lives in
``bench_hotpath.py``.
"""

from __future__ import annotations

from repro.systems.inference import failed_checks, render, run_inference_study

from _util import emit, once


def test_inference_parity_and_reuse(benchmark):
    report = once(benchmark, run_inference_study)
    emit("inference", render(report), data=report)
    assert failed_checks(report) == []
