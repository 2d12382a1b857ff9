"""Training loops for the convergence experiments (paper Table 6).

Single-process training here is numerically identical to synchronized
data+expert-parallel training (synchronous SGD averages the same
gradients), so these runs stand in for the paper's 32-GPU convergence
study at a CPU-tractable scale.  Compression variants train with the
codec applied to both A2A hops of every MoE layer, exactly where the
real system would corrupt activations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..data.synthetic_lm import SyntheticLM
from ..data.synthetic_translation import SyntheticTranslation
from ..data.vocab import BOS, EOS, PAD
from ..metrics.bleu import corpus_bleu
from ..metrics.perplexity import evaluate_lm_perplexity
from ..models.gpt2_tiny import TransformerLM
from ..models.transformer import Seq2SeqTransformer
from ..nn.optim import Adam, clip_grad_norm


class TrainingDivergedError(RuntimeError):
    """Raised when an :class:`AnomalyGuard` exhausts its retry budget."""


@dataclass
class AnomalyGuard:
    """Skip-don't-crash protection against non-finite training steps.

    Production MoE training treats a non-finite loss or gradient norm
    as a transient anomaly (a bad batch, a race in a faulty collective,
    a degraded worker's garbage output): the optimizer step is
    *skipped* — weights and Adam state stay untouched — and training
    continues.  Each consecutive skip decays the retry budget; a
    healthy step restores it.  ``max_consecutive_skips`` exhausted
    means the run has genuinely diverged and
    :class:`TrainingDivergedError` is raised rather than silently
    training on garbage forever.
    """

    max_consecutive_skips: int = 3
    #: Total steps skipped over the run (diagnostics).
    skipped_steps: int = 0
    #: Current consecutive-skip streak; resets on a healthy step.
    consecutive_skips: int = 0
    #: Human-readable reason of the most recent skip.
    last_reason: str = ""

    def __post_init__(self) -> None:
        if self.max_consecutive_skips < 1:
            raise ValueError(
                "max_consecutive_skips must be >= 1, got "
                f"{self.max_consecutive_skips}"
            )

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
        if self.consecutive_skips > self.max_consecutive_skips:
            raise TrainingDivergedError(
                f"{self.consecutive_skips} consecutive anomalous steps "
                f"(budget {self.max_consecutive_skips}); last: "
                f"{self.last_reason}"
            )
        return False


@dataclass
class TrainHistory:
    """Loss trace and final validation metric of one run."""

    losses: List[float] = field(default_factory=list)
    metric_name: str = ""
    metric: float = float("nan")

    def smoothed_final_loss(self, window: int = 10) -> float:
        """Mean of the last ``window`` losses."""
        if not self.losses:
            raise ValueError("no training steps recorded")
        tail = self.losses[-window:]
        return float(np.mean(tail))


def train_lm(
    model: TransformerLM,
    corpus: SyntheticLM,
    steps: int = 200,
    batch_size: int = 16,
    lr: float = 3e-3,
    grad_clip: float = 1.0,
    seed: int = 0,
    eval_batches: int = 8,
    guard: Optional[AnomalyGuard] = None,
) -> TrainHistory:
    """Train a causal LM; metric = validation perplexity.

    ``guard`` enables anomaly protection: a step with non-finite loss
    or gradient norm is skipped (weights and optimizer state
    untouched) instead of corrupting the run; see
    :class:`AnomalyGuard`.  Without a guard, behaviour is exactly the
    historical unconditional-step loop.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    optimizer = Adam(model.parameters(), lr=lr)
    history = TrainHistory(metric_name="perplexity")
    model.train()
    for step, tokens in enumerate(
        corpus.batches(batch_size, steps, seed=seed)
    ):
        optimizer.zero_grad()
        loss = model.loss(tokens)
        loss.backward()
        grad_norm = clip_grad_norm(model.parameters(), grad_clip)
        if guard is None or guard.step_is_safe(float(loss.data), grad_norm):
            optimizer.step()
        history.losses.append(float(loss.data))
    history.metric = evaluate_lm_perplexity(
        model, corpus.batches(batch_size, eval_batches, seed=seed + 10_000)
    )
    return history


def train_translation(
    model: Seq2SeqTransformer,
    corpus: SyntheticTranslation,
    steps: int = 200,
    batch_size: int = 16,
    lr: float = 3e-3,
    grad_clip: float = 1.0,
    seed: int = 0,
    eval_batches: int = 8,
    guard: Optional[AnomalyGuard] = None,
) -> TrainHistory:
    """Train a seq2seq model; metric = validation BLEU.

    ``guard`` works as in :func:`train_lm`.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    optimizer = Adam(model.parameters(), lr=lr)
    history = TrainHistory(metric_name="bleu")
    model.train()
    for src, tgt_in, tgt_out in corpus.batches(batch_size, steps, seed=seed):
        optimizer.zero_grad()
        loss = model.loss(src, tgt_in, tgt_out)
        loss.backward()
        grad_norm = clip_grad_norm(model.parameters(), grad_clip)
        if guard is None or guard.step_is_safe(float(loss.data), grad_norm):
            optimizer.step()
        history.losses.append(float(loss.data))
    history.metric = evaluate_translation_bleu(
        model, corpus, num_batches=eval_batches, seed=seed + 10_000,
        batch_size=batch_size,
    )
    return history


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
