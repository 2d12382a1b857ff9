"""Evaluation metrics: BLEU and perplexity."""

from .bleu import corpus_bleu
from .perplexity import evaluate_lm_perplexity, perplexity_from_nll

__all__ = [
    "corpus_bleu",
    "evaluate_lm_perplexity",
    "perplexity_from_nll",
]
