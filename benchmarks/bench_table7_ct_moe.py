"""Paper Table 7: CT-MoE-x step time across training systems.

Paper's measured rows (ms):

    x     Tutel   Faster-MoE   ScheMoE
    12    497+/-9    506+/-7    454+/-4
    16    623+/-2    640+/-8    552+/-1
    20    769+/-3    845+/-10   658+/-1
    24    864+/-3   1003+/-16   774+/-8

Reproduction target: ScheMoE 9-17% over Tutel, 11-30% over FasterMoE,
with the FasterMoE gap widening with depth.
"""

from __future__ import annotations

from repro.cluster import paper_testbed
from repro.systems.tables import TABLES

from _util import emit, once

TABLE = TABLES["table7"]


def test_table7_ct_moe(benchmark):
    rows = once(benchmark, lambda: TABLE.build(paper_testbed()))
    emit(TABLE.sidecar, TABLE.render(rows))
    for _layers, results in rows:
        t = results["Tutel"].total_s
        f = results["Faster-MoE"].total_s
        s = results["ScheMoE"].total_s
        assert s < t < f  # ScheMoE wins; FasterMoE trails Tutel
        assert 1.05 < t / s < 1.30
        assert 1.10 < f / s < 1.40
