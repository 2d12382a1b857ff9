"""Training loops for the convergence experiments (paper Table 6).

Single-process training here is numerically identical to synchronized
data+expert-parallel training (synchronous SGD averages the same
gradients), so these runs stand in for the paper's 32-GPU convergence
study at a CPU-tractable scale.  Compression variants train with the
codec applied to both A2A hops of every MoE layer, exactly where the
real system would corrupt activations.

Both trainers run one step loop: Adam, the global gradient norm
clipped to :data:`GRAD_CLIP`, and an :class:`AnomalyGuard` on every
step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, List

import numpy as np

from ..data.synthetic_lm import SyntheticLM
from ..data.synthetic_translation import SyntheticTranslation
from ..data.vocab import BOS, EOS, PAD
from ..metrics.bleu import corpus_bleu
from ..metrics.perplexity import evaluate_lm_perplexity
from ..models.gpt2_tiny import TransformerLM
from ..models.transformer import Seq2SeqTransformer
from ..nn.modules import Module
from ..nn.optim import Adam, clip_grad_norm
from ..nn.tensor import Tensor

#: Global L2 norm every training step clips its gradients to.
GRAD_CLIP = 1.0
#: Consecutive non-finite steps a run skips before it raises.
MAX_CONSECUTIVE_SKIPS = 3


class TrainingDivergedError(RuntimeError):
    """Raised when an :class:`AnomalyGuard` exhausts its retry budget."""


class AnomalyGuard:
    """Skip-don't-crash protection against non-finite training steps.

    Production MoE training treats a non-finite loss or gradient norm
    as a transient anomaly (a bad batch, a race in a faulty collective,
    a degraded worker's garbage output): the optimizer step is
    *skipped* — weights and Adam state stay untouched — and training
    continues.  Each consecutive skip decays the retry budget; a
    healthy step restores it.  More than :data:`MAX_CONSECUTIVE_SKIPS`
    in a row means the run has genuinely diverged, and
    :class:`TrainingDivergedError` is raised rather than silently
    training on garbage forever.
    """

    def __init__(self) -> None:
        #: Total steps skipped over the run (diagnostics).
        self.skipped_steps = 0
        #: Current consecutive-skip streak; resets on a healthy step.
        self.consecutive_skips = 0
        #: Human-readable reason of the most recent skip.
        self.last_reason = ""

    def step_is_safe(self, loss: float, grad_norm: float) -> bool:
        """Whether the optimizer step may be applied.

        ``False`` means skip this step (and the streak grew);
        exhaustion of the budget raises instead of returning.
        """
        if math.isfinite(loss) and math.isfinite(grad_norm):
            self.consecutive_skips = 0
            return True
        self.skipped_steps += 1
        self.consecutive_skips += 1
        culprit = "loss" if not math.isfinite(loss) else "grad-norm"
        self.last_reason = (
            f"non-finite {culprit} (loss={loss}, grad_norm={grad_norm})"
        )
        if self.consecutive_skips > MAX_CONSECUTIVE_SKIPS:
            raise TrainingDivergedError(
                f"{self.consecutive_skips} consecutive anomalous steps "
                f"(budget {MAX_CONSECUTIVE_SKIPS}); last: "
                f"{self.last_reason}"
            )
        return False


@dataclass
class TrainHistory:
    """Loss trace and final validation metric of one run."""

    losses: List[float]
    metric_name: str
    metric: float

    def smoothed_final_loss(self) -> float:
        """Mean of the last 10 losses."""
        if not self.losses:
            raise ValueError("no training steps recorded")
        return float(np.mean(self.losses[-10:]))


def _train(
    model: Module,
    optimizer: Adam,
    batches: Iterable,
    loss_of: Callable[..., Tensor],
) -> List[float]:
    """The guarded step loop of both trainers; returns the losses.

    One ``optimizer`` step per item of ``batches``, whose loss
    ``loss_of`` computes; the caller owns both, so a run continues (or
    forks) by calling again on the rest of its stream.  A step with a
    non-finite loss or gradient norm is skipped (weights and optimizer
    state untouched); more than :data:`MAX_CONSECUTIVE_SKIPS` in a row
    raise :class:`TrainingDivergedError`.
    """
    guard = AnomalyGuard()
    losses: List[float] = []
    model.train()
    for batch in batches:
        optimizer.zero_grad()
        loss = loss_of(batch)
        loss.backward()
        grad_norm = clip_grad_norm(model.parameters(), GRAD_CLIP)
        value = float(loss.data)
        if guard.step_is_safe(value, grad_norm):
            optimizer.step()
        losses.append(value)
    if not losses:
        raise ValueError("no training batches")
    return losses


def train_lm(
    model: TransformerLM,
    corpus: SyntheticLM,
    steps: int = 200,
    batch_size: int = 16,
    lr: float = 3e-3,
    seed: int = 0,
    eval_batches: int = 8,
) -> TrainHistory:
    """Train a causal LM; metric = validation perplexity over
    ``eval_batches`` held-out batches.

    A non-finite step is skipped; more than
    :data:`MAX_CONSECUTIVE_SKIPS` in a row raise
    :class:`TrainingDivergedError` instead of returning a NaN metric.
    """
    losses = _train(
        model, Adam(model.parameters(), lr=lr),
        corpus.batches(batch_size, steps, seed=seed), model.loss,
    )
    perplexity = evaluate_lm_perplexity(
        model, corpus.batches(batch_size, eval_batches, seed=seed + 10_000)
    )
    return TrainHistory(losses, "perplexity", perplexity)


def train_translation(
    model: Seq2SeqTransformer,
    corpus: SyntheticTranslation,
    steps: int = 200,
    batch_size: int = 16,
    lr: float = 3e-3,
    seed: int = 0,
) -> TrainHistory:
    """Train a seq2seq model; metric = validation BLEU over 8 held-out
    batches.  Guarded as :func:`train_lm`."""
    losses = _train(
        model, Adam(model.parameters(), lr=lr),
        corpus.batches(batch_size, steps, seed=seed),
        lambda batch: model.loss(*batch),
    )
    bleu = evaluate_translation_bleu(
        model, corpus, num_batches=8, seed=seed + 10_000,
        batch_size=batch_size,
    )
    return TrainHistory(losses, "bleu", bleu)


def evaluate_translation_bleu(
    model: Seq2SeqTransformer,
    corpus: SyntheticTranslation,
    num_batches: int = 8,
    batch_size: int = 16,
    seed: int = 777,
) -> float:
    """Greedy-decode validation BLEU."""
    model.eval()
    hyps: List[List[int]] = []
    refs: List[List[int]] = []
    for src, _tgt_in, tgt_out in corpus.batches(
        batch_size, num_batches, seed=seed
    ):
        decoded = model.greedy_decode(
            src, bos_id=BOS, eos_id=EOS, max_len=tgt_out.shape[1] + 2
        )
        for hyp_row, ref_row in zip(decoded, tgt_out):
            hyp = _strip(hyp_row)
            ref = _strip(ref_row)
            if ref:
                hyps.append(hyp)
                refs.append(ref)
    model.train()
    if not refs:
        raise RuntimeError("no evaluable sentences")
    return corpus_bleu(hyps, refs)


def _strip(tokens: np.ndarray) -> List[int]:
    """Drop padding and everything after the first EOS."""
    out: List[int] = []
    for t in tokens:
        t = int(t)
        if t == PAD:
            continue
        out.append(t)
        if t == EOS:
            break
    return out
