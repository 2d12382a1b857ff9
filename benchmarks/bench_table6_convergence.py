"""Paper Table 6: convergence under data compression (real training).

Paper's measured table:

    Method       Transformer-MoE (BLEU)   GPT2-Tiny-MoE (PPL)
    Base         45.51                    128.8
    MoE          46.61                    106.8
    MoE w/FP16   46.59                    106.85
    MoE w/INT8   46.68                    110.35
    MoE w/ZFP    46.58                    106.87

Reproduction targets (absolute metrics differ — synthetic corpora,
CPU-scale models — but the orderings must hold):
* MoE clearly beats Base on both tasks;
* FP16 and ZFP track plain MoE closely on both tasks;
* INT8 is the damaged variant: on the (hard) translation task its
  per-tensor gradient quantization prevents convergence entirely
  within the step budget, and its mechanism shows as the lowest SNR
  on the live backward-A2A gradient tensors.  (On the easier LM task
  the final-perplexity effect is below seed noise at CPU scale; the
  paper needed 500k iterations to surface it there.  EXPERIMENTS.md
  discusses.)

The recorded trajectories are the dense reference numerics: the
convergence runs train under ``legacy_dense.pinned()`` from the test
suite, because the production path reassociates reductions, which
shifts these chaotic runs.  :func:`gradient_fidelity` runs on
production.

This bench trains 10 real models with the numpy autograd stack and is
by far the slowest in the harness (~5-8 minutes).
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.compression.fidelity import collect_a2a_tensors, measure_fidelity
from repro.training import (
    default_lm_corpus,
    run_lm_convergence,
    run_translation_convergence,
)
from repro.training.convergence import VARIANTS, _lm_model
from repro.training.trainer import train_lm

from _util import emit, once

# The dense reference lives in the test suite, a package at the root.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.moe import legacy_dense  # noqa: E402

LM_STEPS = 450
MT_STEPS = 900


def gradient_fidelity():
    """SNR of each codec on a trained model's live A2A tensors.

    Measured on the production path (sparse dispatch, grouped
    experts), the process default.
    """
    corpus = default_lm_corpus()
    model = _lm_model("MoE", corpus, seed=0)
    train_lm(model, corpus, steps=150, batch_size=16)
    model.zero_grad()
    tokens = next(corpus.batches(16, 1, seed=999))
    model.loss(tokens).backward()
    tensors = collect_a2a_tensors(model)
    return measure_fidelity(
        tensors["gradients"], codecs=("fp16", "zfp", "int8", "int8c")
    )


def run_table6():
    with legacy_dense.pinned():
        lm = run_lm_convergence(steps=LM_STEPS, batch_size=16)
        mt = run_translation_convergence(steps=MT_STEPS, batch_size=16)
    fidelity = gradient_fidelity()
    return mt, lm, fidelity


def render(mt, lm, fidelity) -> str:
    lines = [
        f"{'Method':<12} {'Transformer-MoE (BLEU)':>24} "
        f"{'GPT2-Tiny-MoE (PPL)':>20}"
    ]
    for name in VARIANTS:
        lines.append(
            f"{name:<12} {mt.metrics[name]:>24.2f} {lm.metrics[name]:>20.3f}"
        )
    lines.append("")
    lines.append("codec SNR on live backward-A2A gradient tensors:")
    lines.append(fidelity.render())
    return "\n".join(lines)


def test_table6_convergence(benchmark):
    mt, lm, fidelity = once(benchmark, run_table6)
    emit("table6_convergence", render(mt, lm, fidelity))
    # MoE beats Base on both tasks (the paper's first finding).
    assert mt.metrics["MoE"] > mt.metrics["Base"] + 20.0
    assert lm.metrics["MoE"] < lm.metrics["Base"] - 0.05
    # FP16 and ZFP remain usable: close to plain MoE on both tasks.
    for codec in ("MoE w/FP16", "MoE w/ZFP"):
        assert lm.metrics[codec] < lm.metrics["Base"] - 0.05
        assert abs(lm.metrics[codec] - lm.metrics["MoE"]) < 0.10
        assert mt.metrics[codec] > mt.metrics["MoE"] - 20.0
    # INT8 is the damaged variant: it fails the hard translation task
    # (paper: "the current INT8 compression approach could not be
    # applied in MoE models in some applications")...
    assert mt.metrics["MoE w/INT8"] < mt.metrics["MoE"] - 20.0
    # ...without diverging outright on the easier LM task.
    assert lm.metrics["MoE w/INT8"] < lm.metrics["Base"] - 0.05
    # INT8's mechanism: lowest gradient fidelity among the codecs.
    assert fidelity.snr_db["fp16"] > fidelity.snr_db["int8"] + 10.0
    assert fidelity.snr_db["zfp"] > fidelity.snr_db["int8"]
