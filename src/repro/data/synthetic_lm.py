"""Synthetic language-modeling corpus (wikitext-103 stand-in).

The perplexity column of paper Table 6 needs a language-modeling task
that is (a) CPU-trainable and (b) heterogeneous enough that an MoE
model beats its dense counterpart.  Documents are generated by
*topic-conditional Markov chains*: each document opens with a topic
token, and each topic has its own sparse next-token transition matrix.
Predicting well requires representing every topic's dynamics — the
capacity that MoE adds cheaply — while a single shared feed-forward
must average them.

Everything is seeded and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .vocab import Vocab


@dataclass(frozen=True)
class LMConfig:
    """Corpus shape parameters."""

    num_words: int = 32
    num_topics: int = 4
    seq_len: int = 32
    branching: int = 3
    seed: int = 99

    def __post_init__(self) -> None:
        if self.num_words < 2:
            raise ValueError("num_words must be >= 2")
        if self.num_topics < 1:
            raise ValueError("num_topics must be >= 1")
        if self.seq_len < 4:
            raise ValueError("seq_len must be >= 4")
        if not 1 <= self.branching <= self.num_words:
            raise ValueError("branching must be in [1, num_words]")


class SyntheticLM:
    """Topic-conditional Markov corpus with an entropy floor.

    The per-topic transition matrix gives each word ``branching``
    equally likely successors, so the optimal perplexity of a model
    that fully learns the dynamics is ``branching`` per content token;
    a model blind to topics faces the mixture of all topics'
    successors.
    """

    def __init__(self, config: LMConfig = LMConfig()):
        self.config = config
        self.vocab = Vocab(config.num_words + config.num_topics)
        rng = np.random.default_rng(config.seed)
        self._topic_tokens = [
            self.vocab.word(i) for i in range(config.num_topics)
        ]
        self._word_base = self.vocab.word(config.num_topics)
        # successors[t, w] = the `branching` next-word choices of word
        # w under topic t; drawn without replacement per (t, w).
        self.successors = np.stack(
            [
                np.stack(
                    [
                        rng.choice(
                            config.num_words, size=config.branching, replace=False
                        )
                        for _ in range(config.num_words)
                    ]
                )
                for _ in range(config.num_topics)
            ]
        )

    @property
    def vocab_size(self) -> int:
        """Total token ids, specials included."""
        return self.vocab.size

    def sample_document(self, rng: np.random.Generator) -> np.ndarray:
        """One document: [topic, w_1, ..., w_{seq_len-1}]."""
        cfg = self.config
        topic = int(rng.integers(0, cfg.num_topics))
        tokens = np.empty(cfg.seq_len, dtype=np.int64)
        tokens[0] = self._topic_tokens[topic]
        word = int(rng.integers(0, cfg.num_words))
        tokens[1] = self._word_base + word
        for i in range(2, cfg.seq_len):
            choices = self.successors[topic, word]
            word = int(choices[rng.integers(0, cfg.branching)])
            tokens[i] = self._word_base + word
        return tokens

    def batches(
        self, batch_size: int, num_batches: int, seed: int
    ) -> Iterator[np.ndarray]:
        """(batch_size, seq_len) token batches."""
        if batch_size < 1 or num_batches < 1:
            raise ValueError("batch_size and num_batches must be >= 1")
        rng = np.random.default_rng(seed)
        for _ in range(num_batches):
            yield np.stack(
                [self.sample_document(rng) for _ in range(batch_size)]
            )
