"""Ablation (beyond paper): cross-layer chunk pipelining.

The paper schedules within one MoE layer; at the layer boundary the
next layer's attention waits for every chunk of the previous layer.
The dependency structure allows finer overlap: attention chunk i of
layer l+1 needs only D2^i of layer l, so with an interleaved enqueue
order the previous layer's trailing A2A communication hides under the
next layer's attention — a natural extension of OptSche's
"un-block later tasks quicker" principle across layers.

This bench quantifies the gain at event granularity for comm-bound
and comm-hidden regimes.
"""

from __future__ import annotations

from repro.cluster import paper_testbed
from repro.collectives import get_a2a
from repro.compression import get_compressor
from repro.core import ModelExecutor, get_scheduler
from repro.models import bert_large_moe, ct_moe

from _util import emit, once

CASES = [
    # (label, cfg-factory, a2a, codec, partitions)
    ("CT-MoE-12  nccl raw   r=2", lambda: ct_moe(12), "nccl", "none", 2),
    ("CT-MoE-12  pipe raw   r=4", lambda: ct_moe(12), "pipe", "none", 4),
    ("BERT-Large nccl raw   r=4", bert_large_moe, "nccl", "none", 4),
    ("BERT-Large pipe raw   r=4", bert_large_moe, "pipe", "none", 4),
    ("CT-MoE-12  pipe zfp   r=2", lambda: ct_moe(12), "pipe", "zfp", 2),
]


def run_cross_layer():
    spec = paper_testbed()
    rows = []
    for label, factory, a2a, codec, r in CASES:
        executor = ModelExecutor(
            spec,
            get_a2a(a2a),
            get_compressor(codec),
            get_scheduler("optsche"),
            partitions=r,
        )
        cfg = factory()
        barrier = executor.run(cfg, mode="layer-barrier").makespan
        chunked = executor.run(cfg, mode="chunked").makespan
        rows.append(
            {
                "label": label,
                "barrier": barrier,
                "chunked": chunked,
            }
        )
    return rows


def render(rows) -> str:
    lines = [
        f"{'configuration':<26} {'barrier':>9} {'chunked':>9} {'gain':>7}"
    ]
    for e in rows:
        gain = (e["barrier"] / e["chunked"] - 1.0) * 100.0
        lines.append(
            f"{e['label']:<26} {e['barrier'] * 1e3:>8.1f}m "
            f"{e['chunked'] * 1e3:>8.1f}m {gain:>6.1f}%"
        )
    return "\n".join(lines)


def test_cross_layer_ablation(benchmark):
    rows = once(benchmark, run_cross_layer)
    emit("ablation_cross_layer", render(rows))
    by_label = {e["label"]: e for e in rows}
    # Never slower.
    for e in rows:
        assert e["chunked"] <= e["barrier"] + 1e-12
    # Comm-bound BERT gains substantially.
    bert = by_label["BERT-Large nccl raw   r=4"]
    assert bert["barrier"] / bert["chunked"] > 1.15
    # With compression the comm tail is already hidden: no gain left.
    hidden = by_label["CT-MoE-12  pipe zfp   r=2"]
    assert hidden["barrier"] / hidden["chunked"] < 1.02
