"""Paper Table 10: component ablation on the big MoE layer.

The layer (B=8, f=1.2, L=2048, H=8192, M=8192) has a ~644 MB A2A
payload.  Paper's measured rows:

    Naive       2401+/-22 ms  1.0x
    ScheMoE-Z   1264+/-5  ms  1.9x
    ScheMoE-ZP  1110+/-5  ms  2.2x
    ScheMoE     1019+/-2  ms  2.4x

Reproduction target: strictly monotone improvement with ZFP as the
largest single contributor and a composite speedup in the 2-3x range.
"""

from __future__ import annotations

from repro.cluster import paper_testbed
from repro.systems.tables import ABLATION_ORDER, TABLES

from _util import emit, once

TABLE = TABLES["table10"]


def test_table10_ablation(benchmark):
    results = once(benchmark, lambda: TABLE.build(paper_testbed()))
    emit(TABLE.sidecar, TABLE.render(results))
    times = [results[name].total_s for name in ABLATION_ORDER]
    assert times == sorted(times, reverse=True)  # monotone improvement
    base = times[0]
    z_gain = base / results["ScheMoE-Z"].total_s
    zp_gain = base / results["ScheMoE-ZP"].total_s
    full_gain = base / results["ScheMoE"].total_s
    assert 1.4 < z_gain < 2.2
    assert z_gain < zp_gain < full_gain
    assert 2.0 < full_gain < 3.0
    # ZFP is the single largest contributor (paper Section 6.5).
    assert (base - results["ScheMoE-Z"].total_s) > (
        results["ScheMoE-Z"].total_s - results["ScheMoE"].total_s
    )
