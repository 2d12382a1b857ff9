"""Synthetic translation corpus (wmt14_en_fr stand-in).

The paper's BLEU experiment (Table 6) needs a translation task where
(a) training converges on CPU in minutes and (b) a mixture-of-experts
beats the same-size dense model, so the Base-vs-MoE gap of the paper
reproduces.  We construct a *topic-conditional* translation language:

* a sentence's first source token names one of ``num_topics`` topics;
* each topic defines its own random token permutation ("dialect
  lexicon"); the target is the source mapped through the topic's
  lexicon, in source word order.

A dense feed-forward of width H must superpose all topic lexicons;
an MoE layer can dedicate experts per topic — the same heterogeneity
argument that motivates MoE on real multilingual corpora, in a form
small enough to train with numpy.  All generation is seeded and
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from .vocab import BOS, EOS, PAD, Vocab


@dataclass(frozen=True)
class TranslationConfig:
    """Corpus shape parameters."""

    num_words: int = 24
    num_topics: int = 4
    min_len: int = 4
    max_len: int = 8
    seed: int = 1234

    def __post_init__(self) -> None:
        if self.num_words < 2:
            raise ValueError("num_words must be >= 2")
        if not 1 <= self.min_len <= self.max_len:
            raise ValueError("need 1 <= min_len <= max_len")
        if self.num_topics < 1:
            raise ValueError("num_topics must be >= 1")


class SyntheticTranslation:
    """Deterministic topic-conditional translation task."""

    def __init__(self, config: TranslationConfig = TranslationConfig()):
        self.config = config
        self.vocab = Vocab(config.num_words + config.num_topics)
        rng = np.random.default_rng(config.seed)
        # Topic tokens are the first `num_topics` content words; the
        # remaining words are the translatable lexicon.
        self._topic_tokens = [self.vocab.word(i) for i in range(config.num_topics)]
        self._word_tokens = [
            self.vocab.word(config.num_topics + i) for i in range(config.num_words)
        ]
        self._lexicons: List[np.ndarray] = []
        for _topic in range(config.num_topics):
            perm = rng.permutation(config.num_words)
            self._lexicons.append(perm)

    @property
    def src_vocab_size(self) -> int:
        """Source-side vocabulary size (shared with the target)."""
        return self.vocab.size

    @property
    def tgt_vocab_size(self) -> int:
        """Target-side vocabulary size (shared with the source)."""
        return self.vocab.size

    @property
    def max_seq_len(self) -> int:
        """Longest source/target sequence incl. topic/EOS framing."""
        return self.config.max_len + 3

    def translate(self, topic: int, words: List[int]) -> List[int]:
        """Ground-truth target word indices for source word indices."""
        lex = self._lexicons[topic]
        return [int(lex[w]) for w in words]

    def sample_pair(
        self, rng: np.random.Generator
    ) -> Tuple[List[int], List[int]]:
        """One (source tokens, target tokens) pair, unpadded.

        Source: [topic, w1..wn, EOS]; target: [mapped..., EOS].
        """
        cfg = self.config
        topic = int(rng.integers(0, cfg.num_topics))
        length = int(rng.integers(cfg.min_len, cfg.max_len + 1))
        words = [int(w) for w in rng.integers(0, cfg.num_words, length)]
        src = [self._topic_tokens[topic]]
        src += [self._word_tokens[w] for w in words]
        src.append(EOS)
        tgt = [self._word_tokens[w] for w in self.translate(topic, words)]
        tgt.append(EOS)
        return src, tgt

    def batches(
        self,
        batch_size: int,
        num_batches: int,
        seed: int,
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Padded (src, tgt_in, tgt_out) batches.

        ``tgt_in`` starts with BOS (teacher forcing); ``tgt_out`` ends
        with EOS; both padded with PAD.
        """
        if batch_size < 1 or num_batches < 1:
            raise ValueError("batch_size and num_batches must be >= 1")
        rng = np.random.default_rng(seed)
        for _ in range(num_batches):
            pairs = [self.sample_pair(rng) for _ in range(batch_size)]
            src_len = max(len(s) for s, _ in pairs)
            tgt_len = max(len(t) for _, t in pairs)
            src = np.full((batch_size, src_len), PAD, dtype=np.int64)
            tgt_in = np.full((batch_size, tgt_len), PAD, dtype=np.int64)
            tgt_out = np.full((batch_size, tgt_len), PAD, dtype=np.int64)
            for i, (s, t) in enumerate(pairs):
                src[i, : len(s)] = s
                tgt_in[i, 0] = BOS
                tgt_in[i, 1 : len(t)] = t[:-1]
                tgt_out[i, : len(t)] = t
            yield src, tgt_in, tgt_out
