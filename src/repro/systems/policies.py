"""Named system policies: ScheMoE, its ablations, and the baselines.

Each is a :class:`~repro.core.system.SystemPolicy` capturing how that
training system executes an MoE layer:

* **Naive** — no compression, NCCL-A2A, strictly sequential tasks
  (paper Fig. 5(a) / Table 9 row 1).
* **Tutel** — no compression, NCCL-based all-to-all, chunk-major
  pipelining at its heuristically chosen degree (the fastest of
  r in {1, 2, 4} per layer).  Tutel's 2DH-A2A exists as an optional
  algorithm for very large scale; its default dispatch path is
  NCCL-based, and at the paper's message sizes 2DH would only slow it
  down (Fig. 9), so the stronger NCCL variant is the fair baseline.
* **FasterMoE** — no compression, NCCL-A2A, fixed pipeline degree 2,
  plus its shadow-expert replication pool, which prices the extra
  memory behind its BERT-Large-MoE OOM (paper Table 8).
* **ScheMoE** — ZFP compression, Pipe-A2A, OptSche ordering, the
  fastest of r in {1, 2, 4} per layer; with the partial variants
  ScheMoE-Z and ScheMoE-ZP (r = 1) of the ablation study (paper
  Table 9/10).

``SystemPolicy.partitions`` lists the degrees a system may run at; a
1-tuple is a fixed degree.  On CT-MoE on the paper testbed every
adaptive system picks r = 1.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.system import PARTITION_CANDIDATES, SystemPolicy


def naive() -> SystemPolicy:
    """No compression, no pipelining, sequential execution."""
    return SystemPolicy(
        name="Naive",
        compressor="none",
        a2a="nccl",
        scheduler="sequential",
        partitions=(1,),
    )


def tutel() -> SystemPolicy:
    """Tutel: chunk-pipelined NCCL all-to-all, no compression.

    Tutel searches the pipeline degree heuristically (paper Section
    8), so the policy chooses the best of r in {1, 2, 4} per layer.
    """
    return SystemPolicy(
        name="Tutel",
        compressor="none",
        a2a="nccl",
        scheduler="chunk-pipeline",
        partitions=PARTITION_CANDIDATES,
    )


def fastermoe() -> SystemPolicy:
    """FasterMoE: fixed degree-2 pipeline + shadow-expert memory pool."""
    return SystemPolicy(
        name="Faster-MoE",
        compressor="none",
        a2a="nccl",
        scheduler="chunk-pipeline",
        partitions=(2,),
        shadow_expert_layers=6,
        comm_inefficiency=1.10,
        enforces_capacity=False,
    )


def schemoe() -> SystemPolicy:
    """Full ScheMoE: ZFP + Pipe-A2A + OptSche, adaptive degree.

    The paper treats choosing r as orthogonal (PipeMoE [43]) and the
    real system picks it adaptively; the policy chooses the best of
    r in {1, 2, 4} per layer, then OptSche orders the tasks.
    """
    return SystemPolicy(
        name="ScheMoE",
        compressor="zfp",
        a2a="pipe",
        scheduler="optsche",
        partitions=PARTITION_CANDIDATES,
    )


def schemoe_no_compression() -> SystemPolicy:
    """ScheMoE with Pipe-A2A + OptSche but raw fp32 payloads, adaptive r.

    The configuration behind the paper's Figure 8 sweep: the 675-layer
    grid compares scheduling + Pipe-A2A against Tutel (compression is
    introduced separately in Section 6.2's convergence study); plain
    Pipe-A2A + OptSche gains a few percent on small layers and up to
    ~1.5x on bandwidth-bound ones, averaging ~1.2x.
    """
    return SystemPolicy(
        name="ScheMoE-NC",
        compressor="none",
        a2a="pipe",
        scheduler="optsche",
        partitions=PARTITION_CANDIDATES,
    )


def schemoe_z() -> SystemPolicy:
    """Ablation: ZFP only (paper Table 9 row ScheMoE-Z)."""
    return SystemPolicy(
        name="ScheMoE-Z",
        compressor="zfp",
        a2a="nccl",
        scheduler="sequential",
        partitions=(1,),
    )


def schemoe_zp() -> SystemPolicy:
    """Ablation: ZFP + Pipe-A2A, no scheduling (ScheMoE-ZP)."""
    return SystemPolicy(
        name="ScheMoE-ZP",
        compressor="zfp",
        a2a="pipe",
        scheduler="sequential",
        partitions=(1,),
    )


def ablation_suite() -> List[SystemPolicy]:
    """The four rows of paper Table 9, in order."""
    return [naive(), schemoe_z(), schemoe_zp(), schemoe()]


def comparison_suite() -> List[SystemPolicy]:
    """The systems compared in paper Tables 7 and 8."""
    return [tutel(), fastermoe(), schemoe()]


ALL_POLICIES: Dict[str, SystemPolicy] = {
    p.name: p
    for p in [
        naive(),
        tutel(),
        fastermoe(),
        schemoe(),
        schemoe_no_compression(),
        schemoe_z(),
        schemoe_zp(),
    ]
}
