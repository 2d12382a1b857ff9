"""Tests of the training loops and convergence machinery."""

import itertools
import math

import numpy as np
import pytest

from repro.data import LMConfig, SyntheticLM, SyntheticTranslation, TranslationConfig
from repro.models import Seq2SeqTransformer, TransformerLM
from repro.training import (
    TrainingDivergedError,
    evaluate_translation_bleu,
    run_lm_convergence,
    train_lm,
    train_translation,
)
from repro.training.convergence import VARIANTS


@pytest.fixture(scope="module")
def lm_corpus():
    return SyntheticLM(LMConfig(num_words=12, num_topics=2, seq_len=16, branching=2))


@pytest.fixture(scope="module")
def mt_corpus():
    return SyntheticTranslation(
        TranslationConfig(num_words=10, num_topics=2, min_len=3, max_len=5)
    )


def test_train_lm_reduces_loss(lm_corpus):
    model = TransformerLM(
        vocab_size=lm_corpus.vocab_size, model_dim=24, hidden_dim=32,
        num_layers=1, num_heads=2, max_seq_len=16, seed=0,
    )
    history = train_lm(model, lm_corpus, steps=60, batch_size=8)
    assert history.smoothed_final_loss() < history.losses[0] * 0.9
    assert history.metric_name == "perplexity"
    assert history.metric > 1.0
    with pytest.raises(ValueError):
        train_lm(model, lm_corpus, steps=0)


def test_train_translation_reduces_loss(mt_corpus):
    model = Seq2SeqTransformer(
        src_vocab=mt_corpus.src_vocab_size, tgt_vocab=mt_corpus.tgt_vocab_size,
        model_dim=24, hidden_dim=32, num_layers=1, num_heads=2,
        max_seq_len=mt_corpus.max_seq_len, seed=0,
    )
    history = train_translation(model, mt_corpus, steps=60, batch_size=8)
    assert history.smoothed_final_loss() < history.losses[0] * 0.9
    assert history.metric_name == "bleu"
    assert 0.0 <= history.metric <= 100.0


def test_bleu_eval_runs(mt_corpus):
    model = Seq2SeqTransformer(
        src_vocab=mt_corpus.src_vocab_size, tgt_vocab=mt_corpus.tgt_vocab_size,
        model_dim=16, hidden_dim=24, num_layers=1, num_heads=2,
        max_seq_len=mt_corpus.max_seq_len, seed=0,
    )
    bleu = evaluate_translation_bleu(model, mt_corpus, num_batches=2, batch_size=4)
    assert 0.0 <= bleu <= 100.0


def test_lm_convergence_variants_run(lm_corpus):
    result = run_lm_convergence(
        steps=25, batch_size=8, variants=["Base", "MoE"], corpus=lm_corpus,
    )
    assert set(result.metrics) == {"Base", "MoE"}
    assert all(m > 1.0 for m in result.metrics.values())
    text = result.render()
    assert "perplexity" in text and "Base" in text


def test_variant_list_matches_table6():
    assert VARIANTS == ("Base", "MoE", "MoE w/FP16", "MoE w/INT8", "MoE w/ZFP")


def test_training_is_deterministic(lm_corpus):
    def run():
        model = TransformerLM(
            vocab_size=lm_corpus.vocab_size, model_dim=16, hidden_dim=24,
            num_layers=1, num_heads=2, max_seq_len=16, seed=42,
        )
        return train_lm(model, lm_corpus, steps=10, batch_size=4).losses

    assert run() == run()


def _tiny_lm(corpus):
    return TransformerLM(
        vocab_size=corpus.vocab_size, model_dim=16, hidden_dim=24,
        num_layers=1, num_heads=2, max_seq_len=16, seed=0,
    )


def _poison_loss(model, bad_calls):
    """Make ``model.loss`` non-finite (loss and gradients) on the
    calls numbered in ``bad_calls``."""
    loss, calls = model.loss, itertools.count()

    def poisoned(tokens):
        out = loss(tokens)
        return out * float("nan") if next(calls) in bad_calls else out

    model.loss = poisoned


def test_train_lm_skips_three_nonfinite_steps_in_a_row(lm_corpus):
    model = _tiny_lm(lm_corpus)
    _poison_loss(model, {1, 2, 3})
    history = train_lm(model, lm_corpus, steps=6, batch_size=4)
    assert [math.isnan(x) for x in history.losses] == [
        False, True, True, True, False, False,
    ]
    # The skipped steps left the weights finite, so the metric is too.
    assert math.isfinite(history.metric)
    assert all(np.isfinite(p.data).all() for p in model.parameters())


def test_train_lm_raises_on_a_fourth_nonfinite_step_in_a_row(lm_corpus):
    model = _tiny_lm(lm_corpus)
    _poison_loss(model, {1, 2, 3, 4})
    with pytest.raises(TrainingDivergedError, match="4 consecutive"):
        train_lm(model, lm_corpus, steps=6, batch_size=4)
