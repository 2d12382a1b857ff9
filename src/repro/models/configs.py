"""Model configurations of the paper's evaluation (Tables 1, 4, 5).

These drive the step-time simulator: each config yields per-layer task
sizes (A2A payload via paper Eq. 2, expert flops, gate flops, dense
attention flops) without instantiating numerical weights — BERT-Large-
MoE's 6.4 B parameters never have to exist in RAM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..cluster.costmodel import check_count, check_routing, expert_capacity


@dataclass(frozen=True)
class MoEModelConfig:
    """One row of paper Table 5 (plus derived quantities).

    Notation follows paper Table 2: per-GPU batch B, sequence length
    L, expert hidden size H, embedding size M, top-k k, experts E,
    capacity factor f.
    """

    name: str
    num_layers: int
    batch_per_gpu: int
    seq_len: int
    hidden_dim: int
    model_dim: int
    top_k: int
    num_experts: int
    capacity_factor: float = 1.0
    vocab_size: int = 32768
    #: Microbenchmark mode: a bare MoE layer with no attention,
    #: embedding or LM head around it (the paper's Table 4 sweep and
    #: Section 6.5 ablation are layer benchmarks, not full models).
    layer_only: bool = False

    def __post_init__(self) -> None:
        check_routing(self.top_k, self.capacity_factor)
        for attr in (
            "num_layers",
            "batch_per_gpu",
            "seq_len",
            "hidden_dim",
            "model_dim",
            "num_experts",
        ):
            check_count(attr, getattr(self, attr))

    # -- paper quantities ------------------------------------------------
    @property
    def tokens_per_gpu(self) -> int:
        """B x L."""
        return self.batch_per_gpu * self.seq_len

    @property
    def capacity(self) -> int:
        """Paper Eq. (1) (:func:`~repro.cluster.costmodel.expert_capacity`)."""
        return expert_capacity(
            self.tokens_per_gpu,
            self.num_experts,
            self.capacity_factor,
            self.top_k,
        )

    @property
    def expert_tokens_per_gpu(self) -> int:
        """Tokens each GPU's local experts process per pass.

        Each of the E experts receives up to C tokens from each of the
        P GPUs; with E experts spread over P GPUs a GPU computes
        ``(E / P) * C * P = E * C`` tokens — which equals
        ``f * k * B * L`` (all of a GPU's routed assignments,
        rebalanced by the capacity mechanism).
        """
        return self.num_experts * self.capacity

    @property
    def a2a_bytes(self) -> float:
        """Paper Eq. (2): per-GPU A2A payload per MoE layer direction,
        at 4 bytes (fp32) per value."""
        elements = (
            self.capacity_factor
            * self.top_k
            * self.tokens_per_gpu
            * self.model_dim
        )
        return elements * 4.0

    @property
    def expert_params(self) -> int:
        """Parameters of one expert fflayer (two weight matrices + biases)."""
        return 2 * self.model_dim * self.hidden_dim + self.hidden_dim + self.model_dim

    @property
    def moe_params(self) -> int:
        """All experts + gates across layers."""
        gate = self.model_dim * self.num_experts
        return self.num_layers * (self.num_experts * self.expert_params + gate)

    @property
    def attention_params(self) -> int:
        """Per-layer attention projections (4 M x M) across layers."""
        if self.layer_only:
            return 0
        per_layer = 4 * (self.model_dim * self.model_dim + self.model_dim)
        return self.num_layers * per_layer

    @property
    def embedding_params(self) -> int:
        """Token-embedding parameters (0 for layer microbenchmarks)."""
        if self.layer_only:
            return 0
        return self.vocab_size * self.model_dim

    @property
    def total_params(self) -> int:
        """All parameters: experts + gates + attention + embeddings."""
        return self.moe_params + self.attention_params + self.embedding_params


def transformer_moe() -> MoEModelConfig:
    """Table 5 row 1: Transformer-MoE (B*L = 4096, H=2048, M=512, k=1, E=8)."""
    return MoEModelConfig(
        name="Transformer-MoE",
        num_layers=12,
        batch_per_gpu=8,
        seq_len=512,
        hidden_dim=2048,
        model_dim=512,
        top_k=1,
        num_experts=8,
        capacity_factor=1.0,
    )


def gpt2_tiny_moe() -> MoEModelConfig:
    """Table 5 row 2: GPT2-Tiny-MoE (B=4, L=256, H=64, M=64, k=2, E=32)."""
    return MoEModelConfig(
        name="GPT2-Tiny-MoE",
        num_layers=12,
        batch_per_gpu=4,
        seq_len=256,
        hidden_dim=64,
        model_dim=64,
        top_k=2,
        num_experts=32,
        capacity_factor=1.0,
    )


def ct_moe(num_layers: int = 12) -> MoEModelConfig:
    """Table 5 row 3: CT-MoE-x (B=136, L=31, H=512, M=512, k=1, E=32).

    The x in CT-MoE-x is the layer count (12, 16, 20, 24 in Tables 1
    and 7).
    """
    return MoEModelConfig(
        name=f"CT-MoE-{num_layers}",
        num_layers=num_layers,
        batch_per_gpu=136,
        seq_len=31,
        hidden_dim=512,
        model_dim=512,
        top_k=1,
        num_experts=32,
        capacity_factor=1.0,
    )


def bert_large_moe() -> MoEModelConfig:
    """Table 5 row 4: BERT-Large-MoE.

    The table row reads f=1.0, B=1, L=4096, H=1024, M=1, k=32, E=32,
    which is internally inconsistent (M=1 makes no tensor sense).  We
    adopt the standard BERT-Large geometry (24 layers, M=1024,
    H=4096) with the table's B=1, L=4096: the per-GPU A2A payload is
    then 1*4096*1024*4 = 16.8 MB and each of the 32 per-peer chunks is
    exactly 524,288 bytes — the "input size for the A2A collective"
    of paper Section 6.3.  Total parameters land at ~6.6 B with E=32
    experts per layer, matching the paper's "~6.5 billion".
    """
    return MoEModelConfig(
        name="BERT-Large-MoE",
        num_layers=24,
        batch_per_gpu=1,
        seq_len=4096,
        hidden_dim=4096,
        model_dim=1024,
        top_k=1,
        num_experts=32,
        capacity_factor=1.0,
    )


def ablation_layer() -> MoEModelConfig:
    """Section 6.5's single MoE layer: B=8, f=1.2, L=2048, H=8192,

    M=8192 — its A2A payload is 1.2*8*2048*8192*4 = ~644 MB, the
    regime where Pipe-A2A shines (paper: "the A2A input size of
    CT-MoE is 640MB" refers to this layer).
    """
    return MoEModelConfig(
        name="Ablation-Layer",
        num_layers=1,
        batch_per_gpu=8,
        seq_len=2048,
        hidden_dim=8192,
        model_dim=8192,
        top_k=1,
        num_experts=32,
        capacity_factor=1.2,
        layer_only=True,
    )


def table4_grid() -> List[Dict[str, float]]:
    """The customized-MoE-layer sweep of paper Table 4.

    B x f x L x H x M = 3*3*3*5*5 = 675 combinations (the paper
    measures the 675 valid non-OOM cases), with k=2 and E = #GPUs.
    """
    grid = []
    for b in (2, 4, 8):
        for f in (1.0, 1.1, 1.2):
            for l in (512, 1024, 2048):
                for h in (512, 1024, 2048, 4096, 8192):
                    for m in (512, 1024, 2048, 4096, 8192):
                        grid.append(
                            {"B": b, "f": f, "L": l, "H": h, "M": m}
                        )
    return grid


def layer_config_from_grid(
    point: Dict[str, float], num_experts: int = 32, top_k: int = 2
) -> MoEModelConfig:
    """A single-MoE-layer config for one Table 4 grid point."""
    return MoEModelConfig(
        name=f"layer-B{point['B']}-f{point['f']}-L{point['L']}-H{point['H']}-M{point['M']}",
        num_layers=1,
        batch_per_gpu=int(point["B"]),
        seq_len=int(point["L"]),
        hidden_dim=int(point["H"]),
        model_dim=int(point["M"]),
        top_k=top_k,
        num_experts=num_experts,
        capacity_factor=float(point["f"]),
        layer_only=True,
    )


PAPER_MODELS = {
    "transformer_moe": transformer_moe,
    "gpt2_tiny_moe": gpt2_tiny_moe,
    "ct_moe": ct_moe,
    "bert_large_moe": bert_large_moe,
}
