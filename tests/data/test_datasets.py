"""Tests of the synthetic corpora."""

import numpy as np
import pytest

from repro.data import (
    BOS,
    EOS,
    PAD,
    LMConfig,
    SyntheticLM,
    SyntheticTranslation,
    TranslationConfig,
    Vocab,
)


def test_vocab_specials_and_words():
    v = Vocab(10)
    assert v.size == 14
    assert v.word(0) == 4
    with pytest.raises(ValueError):
        v.word(10)
    assert v.words([0, 1]) == [4, 5]


def test_translation_determinism():
    corpus = SyntheticTranslation(TranslationConfig(seed=5))
    a = list(corpus.batches(4, 3, seed=1))
    b = list(corpus.batches(4, 3, seed=1))
    for (s1, i1, o1), (s2, i2, o2) in zip(a, b):
        np.testing.assert_array_equal(s1, s2)
        np.testing.assert_array_equal(i1, i2)
        np.testing.assert_array_equal(o1, o2)


def test_translation_batch_framing():
    corpus = SyntheticTranslation(TranslationConfig())
    src, tgt_in, tgt_out = next(corpus.batches(8, 1, seed=0))
    assert src.shape[0] == 8
    assert np.all(tgt_in[:, 0] == BOS)
    # tgt_in is tgt_out shifted right by one.
    for i in range(8):
        out_tokens = [t for t in tgt_out[i] if t != PAD]
        in_tokens = [t for t in tgt_in[i] if t != PAD]
        assert in_tokens[0] == BOS
        assert in_tokens[1:] == out_tokens[:-1]
        assert out_tokens[-1] == EOS


def test_translation_mapping_is_topic_dependent():
    corpus = SyntheticTranslation(TranslationConfig(num_topics=4))
    words = [0, 1, 2, 3]
    outputs = {tuple(corpus.translate(t, words)) for t in range(4)}
    assert len(outputs) > 1  # different topics map differently


def test_translation_validation():
    corpus = SyntheticTranslation(TranslationConfig())
    with pytest.raises(ValueError):
        next(corpus.batches(0, 1, seed=0))
    with pytest.raises(ValueError):
        TranslationConfig(min_len=5, max_len=4)


def test_lm_document_structure():
    corpus = SyntheticLM(LMConfig(num_words=16, num_topics=3, seq_len=20))
    doc = corpus.sample_document(np.random.default_rng(0))
    assert doc.shape == (20,)
    # First token is a topic token.
    assert doc[0] in [corpus.vocab.word(i) for i in range(3)]
    # All following tokens are content words.
    assert all(t >= corpus._word_base for t in doc[1:])


def test_lm_transitions_follow_topic_chain():
    cfg = LMConfig(num_words=16, num_topics=3, seq_len=40, branching=2)
    corpus = SyntheticLM(cfg)
    rng = np.random.default_rng(4)
    for _ in range(5):
        doc = corpus.sample_document(rng)
        topic = doc[0] - corpus.vocab.word(0)
        for prev, nxt in zip(doc[1:-1], doc[2:]):
            w_prev = prev - corpus._word_base
            w_next = nxt - corpus._word_base
            assert w_next in corpus.successors[topic, w_prev]


def test_lm_determinism_and_validation():
    corpus = SyntheticLM(LMConfig())
    a = list(corpus.batches(4, 2, seed=9))
    b = list(corpus.batches(4, 2, seed=9))
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    with pytest.raises(ValueError):
        LMConfig(branching=0)
    with pytest.raises(ValueError):
        LMConfig(seq_len=2)
