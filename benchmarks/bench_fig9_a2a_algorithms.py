"""Paper Figure 9: all-to-all algorithm comparison by message size.

Three regimes on the 32-GPU testbed — (a) small [1 KB, 1 MB],
(b) median [1 MB, 200 MB], (c) large [200 MB, 2 GB].

Reproduction targets (paper Section 6.4):
* Pipe-A2A is the fastest at every size;
* small/median: Pipe-A2A only a few percent over NCCL-A2A;
* large: ~1.4x over NCCL-A2A and up to ~2x over 2DH-A2A;
* 1DH-A2A is far slower everywhere and OOMs at large tensors;
* the simulated Pipe gain tracks the analytic bound of Eq. 18.
"""

from __future__ import annotations

from repro.cluster import paper_testbed
from repro.systems.tables import TABLES

from _util import emit, once

TABLE = TABLES["fig9"]


def test_fig9_a2a_algorithms(benchmark):
    rows = once(benchmark, lambda: TABLE.build(paper_testbed()))
    emit(TABLE.sidecar, TABLE.render(rows))
    for e in rows:
        # Pipe always wins (paper: "Pipe-A2A outperforms all the other
        # A2A algorithms in all cases" vs NCCL/1DH; 2DH's aggregation
        # is allowed a tiny edge only at latency-bound sizes).
        assert e["pipe"] <= e["nccl"]
        assert e["pipe"] <= e["1dh"]
        if e["size"] >= 1e6:
            assert e["pipe"] <= e["2dh"]
        if e["regime"] == "large":
            assert 1.25 < e["nccl"] / e["pipe"] < 1.6
            if e["2dh"] != float("inf"):
                assert 1.7 < e["2dh"] / e["pipe"] < 2.4
    # 1DH OOMs at the top of the large range.
    assert rows[-1]["1dh"] == float("inf")
