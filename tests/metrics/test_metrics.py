"""Tests of BLEU and perplexity."""

import math

import pytest

from repro.metrics import corpus_bleu, perplexity_from_nll


def test_bleu_perfect_match_is_100():
    hyp = [[1, 2, 3, 4, 5]]
    assert corpus_bleu(hyp, hyp) == pytest.approx(100.0)


def test_bleu_no_overlap_is_0():
    assert corpus_bleu([[1, 2, 3, 4]], [[5, 6, 7, 8]]) == 0.0


def test_bleu_partial_overlap_between_0_and_100():
    score = corpus_bleu([[1, 2, 3, 9, 10]], [[1, 2, 3, 4, 5]])
    assert 0 < score < 100


def test_bleu_brevity_penalty():
    ref = [[1, 2, 3, 4, 5, 6, 7, 8]]
    short = corpus_bleu([[1, 2, 3, 4]], ref)
    full = corpus_bleu([[1, 2, 3, 4, 5, 6, 7, 8]], ref)
    assert short < full


def test_bleu_order_sensitivity():
    ref = [[1, 2, 3, 4, 5]]
    shuffled = corpus_bleu([[5, 3, 1, 4, 2]], ref)
    ordered = corpus_bleu([[1, 2, 3, 4, 5]], ref)
    assert shuffled < ordered


def test_bleu_validation():
    with pytest.raises(ValueError):
        corpus_bleu([[1]], [[1], [2]])
    with pytest.raises(ValueError):
        corpus_bleu([], [])


def test_bleu_clipping():
    """Repeating a reference word cannot inflate precision."""
    ref = [[1, 2, 3, 4]]
    spam = corpus_bleu([[1, 1, 1, 1]], ref)
    honest = corpus_bleu([[1, 2, 3, 4]], ref)
    assert spam < honest


def test_perplexity_from_nll():
    assert perplexity_from_nll(0.0) == pytest.approx(1.0)
    assert perplexity_from_nll(math.log(8)) == pytest.approx(8.0)
    with pytest.raises(ValueError):
        perplexity_from_nll(-0.1)
    assert perplexity_from_nll(1000.0) < float("inf")  # capped
