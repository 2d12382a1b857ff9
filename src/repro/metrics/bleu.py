"""Corpus BLEU (n-gram precision with brevity penalty).

Standard BLEU-4 with add-one smoothing on higher-order n-grams: one
is added to both the matches and the totals for n >= 2 (Lin & Och
2004, "method 2" of Chen & Cherry 2014), over integer token sequences.
Used for the translation column of paper Table 6.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import List, Sequence


def _ngrams(tokens: Sequence[int], n: int) -> Counter:
    return Counter(
        tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)
    )


#: Highest n-gram order.
MAX_N = 4


def corpus_bleu(
    hypotheses: List[Sequence[int]], references: List[Sequence[int]]
) -> float:
    """BLEU-4 score in [0, 100] over a corpus of token sequences."""
    if len(hypotheses) != len(references):
        raise ValueError(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if not hypotheses:
        raise ValueError("empty corpus")
    matches = [0] * MAX_N
    totals = [0] * MAX_N
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp = list(hyp)
        ref = list(ref)
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, MAX_N + 1):
            hyp_ngrams = _ngrams(hyp, n)
            ref_ngrams = _ngrams(ref, n)
            totals[n - 1] += max(len(hyp) - n + 1, 0)
            matches[n - 1] += sum(
                min(count, ref_ngrams[gram])
                for gram, count in hyp_ngrams.items()
            )

    log_precision = 0.0
    for n in range(MAX_N):
        m, t = matches[n], totals[n]
        if n > 0:
            m, t = m + 1, t + 1
        if m == 0 or t == 0:
            return 0.0
        log_precision += math.log(m / t)
    log_precision /= MAX_N

    if hyp_len == 0:
        return 0.0
    brevity = (
        1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    )
    return 100.0 * brevity * math.exp(log_precision)
