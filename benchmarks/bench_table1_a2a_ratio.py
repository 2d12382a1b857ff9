"""Paper Table 1: A2A time vs step time on CT-MoE-x under Tutel.

Paper's measured rows (32x RTX 2080 Ti, 100 Gb/s IB):

    layers  A2A(ms)  step(ms)  ratio
    12      252.6    497.1     50.8%
    16      324.8    623.0     52.1%
    20      419.3    768.9     54.5%
    24      507.4    863.6     58.8%

Reproduction target: A2A occupies at least half the step and the ratio
grows with depth.
"""

from __future__ import annotations

from repro.cluster import paper_testbed
from repro.systems.tables import TABLES

from _util import emit, once

TABLE = TABLES["table1"]


def test_table1_a2a_ratio(benchmark):
    text = TABLE.render(once(benchmark, lambda: TABLE.build(paper_testbed())))
    emit(TABLE.sidecar, text)
    # Shape assertions: A2A >= 50% and monotone in depth.
    ratios = [float(line.split()[-1]) for line in text.splitlines()[1:]]
    assert all(r >= 50.0 for r in ratios)
    assert ratios == sorted(ratios)
