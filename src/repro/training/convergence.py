"""The Table 6 experiment: convergence under data compression.

Builds the paper's five variants per task — Base (dense), MoE, MoE
w/FP16, MoE w/INT8, MoE w/ZFP — trains each for the same number of
iterations from the same initialization, and reports the validation
metric (BLEU for translation, perplexity for language modeling).

Expected shape (paper Section 6.2): MoE clearly beats Base; FP16 and
ZFP track plain MoE closely; INT8 shows a measurable regression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..compression.base import get_compressor
from ..data.synthetic_lm import LMConfig, SyntheticLM
from ..data.synthetic_translation import SyntheticTranslation, TranslationConfig
from ..models.gpt2_tiny import TransformerLM
from ..models.transformer import Seq2SeqTransformer
from .trainer import TrainHistory, train_lm, train_translation

#: The paper's Table 6 rows, in order.
VARIANTS = ("Base", "MoE", "MoE w/FP16", "MoE w/INT8", "MoE w/ZFP")

_CODEC_OF = {
    "Base": None,
    "MoE": None,
    "MoE w/FP16": "fp16",
    "MoE w/INT8": "int8",
    "MoE w/ZFP": "zfp",
}


@dataclass
class ConvergenceResult:
    """Per-variant outcome of one task."""

    task: str
    metric_name: str
    metrics: Dict[str, float]
    histories: Dict[str, TrainHistory]

    def render(self) -> str:
        """Paper-style table."""
        rows = [f"{'Method':14} {self.metric_name}"]
        for name in VARIANTS:
            if name in self.metrics:
                rows.append(f"{name:14} {self.metrics[name]:.2f}")
        return "\n".join(rows)


def default_lm_corpus() -> SyntheticLM:
    """The validated GPT2-Tiny-MoE stand-in corpus.

    6 topics over 20 words with branching 2: heterogeneous enough that
    the MoE's extra capacity shows within a few hundred CPU steps.
    """
    return SyntheticLM(
        LMConfig(num_words=20, num_topics=6, seq_len=24, branching=2, seed=7)
    )


def default_mt_corpus() -> SyntheticTranslation:
    """The validated Transformer-MoE stand-in corpus.

    4 topic lexicons over 12 words: within a 900-step budget the
    width-24 dense model fails to learn the multi-lexicon mapping
    (single-digit BLEU) while the expert-parallel MoE converges to
    90+ BLEU — the Base-vs-MoE gap of paper Table 6, amplified to
    CPU scale.
    """
    return SyntheticTranslation(
        TranslationConfig(
            num_words=12, num_topics=4, min_len=3, max_len=5, seed=3
        )
    )


def _lm_model(variant: str, corpus: SyntheticLM, seed: int) -> TransformerLM:
    codec_name = _CODEC_OF[variant]
    return TransformerLM(
        vocab_size=corpus.vocab_size,
        model_dim=32,
        hidden_dim=32,
        num_layers=2,
        num_heads=4,
        max_seq_len=corpus.config.seq_len,
        moe=variant != "Base",
        num_experts=corpus.config.num_topics,
        top_k=2,
        capacity_factor=1.5,
        compressor=get_compressor(codec_name) if codec_name else None,
        seed=seed,
    )


def _mt_model(
    variant: str, corpus: SyntheticTranslation, seed: int
) -> Seq2SeqTransformer:
    codec_name = _CODEC_OF[variant]
    return Seq2SeqTransformer(
        src_vocab=corpus.src_vocab_size,
        tgt_vocab=corpus.tgt_vocab_size,
        model_dim=32,
        hidden_dim=24,
        num_layers=2,
        num_heads=4,
        max_seq_len=corpus.max_seq_len,
        moe=variant != "Base",
        num_experts=corpus.config.num_topics + 1,
        top_k=2,
        capacity_factor=1.5,
        compressor=get_compressor(codec_name) if codec_name else None,
        seed=seed,
    )


def run_lm_convergence(
    steps: int = 450,
    batch_size: int = 16,
    variants: Optional[List[str]] = None,
    seed: int = 0,
    corpus: Optional[SyntheticLM] = None,
) -> ConvergenceResult:
    """GPT2-Tiny-MoE column of Table 6 (perplexity, lower = better).

    Each variant trains at lr 3e-3 and is scored on 32 held-out
    batches.
    """
    corpus = corpus if corpus is not None else default_lm_corpus()
    metrics: Dict[str, float] = {}
    histories: Dict[str, TrainHistory] = {}
    for variant in variants or list(VARIANTS):
        model = _lm_model(variant, corpus, seed=seed)
        history = train_lm(
            model, corpus, steps=steps, batch_size=batch_size,
            seed=seed, lr=3e-3, eval_batches=32,
        )
        metrics[variant] = history.metric
        histories[variant] = history
    return ConvergenceResult(
        task="GPT2-Tiny-MoE",
        metric_name="perplexity",
        metrics=metrics,
        histories=histories,
    )


def run_translation_convergence(
    steps: int = 600,
    batch_size: int = 16,
    variants: Optional[List[str]] = None,
    seed: int = 0,
    corpus: Optional[SyntheticTranslation] = None,
) -> ConvergenceResult:
    """Transformer-MoE column of Table 6 (BLEU, higher = better).

    Each variant trains at lr 5e-3.
    """
    corpus = corpus if corpus is not None else default_mt_corpus()
    metrics: Dict[str, float] = {}
    histories: Dict[str, TrainHistory] = {}
    for variant in variants or list(VARIANTS):
        model = _mt_model(variant, corpus, seed=seed)
        history = train_translation(
            model, corpus, steps=steps, batch_size=batch_size,
            seed=seed, lr=5e-3,
        )
        metrics[variant] = history.metric
        histories[variant] = history
    return ConvergenceResult(
        task="Transformer-MoE",
        metric_name="bleu",
        metrics=metrics,
        histories=histories,
    )
