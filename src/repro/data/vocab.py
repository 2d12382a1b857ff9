"""Vocabulary with reserved special tokens."""

from __future__ import annotations

from typing import Iterable, List

PAD = 0
BOS = 1
EOS = 2
UNK = 3
NUM_SPECIAL = 4


class Vocab:
    """Integer vocabulary: ids [0, NUM_SPECIAL) are reserved specials."""

    def __init__(self, num_words: int):
        if num_words < 1:
            raise ValueError(f"num_words must be >= 1, got {num_words}")
        self.num_words = num_words

    @property
    def size(self) -> int:
        """Total ids including specials."""
        return self.num_words + NUM_SPECIAL

    def word(self, index: int) -> int:
        """Id of content word ``index`` (0-based)."""
        if not 0 <= index < self.num_words:
            raise ValueError(f"word index {index} out of range")
        return index + NUM_SPECIAL

    def words(self, indices: Iterable[int]) -> List[int]:
        """Map word indices to token ids."""
        return [self.word(i) for i in indices]
