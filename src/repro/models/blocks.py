"""Transformer building blocks, dense or MoE.

Each block is pre-norm attention plus a feed-forward sublayer; the
feed-forward is either a dense fflayer (the "Base" models of paper
Table 6) or an :class:`~repro.moe.MoELayer` (the "-MoE" models, where
the paper replaces *all* feed-forward layers with MoE layers).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..compression.base import Compressor
from ..moe import MoELayer
from ..nn.modules import (
    FeedForward,
    LayerNorm,
    Module,
    MultiHeadAttention,
)
from ..nn.tensor import Tensor


def make_ffn(
    model_dim: int,
    hidden_dim: int,
    rng: np.random.Generator,
    moe: bool = False,
    num_experts: int = 8,
    top_k: int = 2,
    capacity_factor: float = 1.0,
    compressor: Optional[Compressor] = None,
) -> Module:
    """Dense fflayer or MoE layer, per the model variant."""
    if not moe:
        return FeedForward(model_dim, hidden_dim, rng)
    return MoELayer(
        model_dim,
        hidden_dim,
        num_experts,
        rng,
        top_k=top_k,
        capacity_factor=capacity_factor,
        compressor=compressor,
    )


class TransformerBlock(Module):
    """Pre-norm block: (self-attn) [+ cross-attn] + ffn, residuals."""

    def __init__(
        self,
        model_dim: int,
        num_heads: int,
        ffn: Module,
        rng: np.random.Generator,
        causal: bool = False,
        cross_attention: bool = False,
    ):
        super().__init__()
        self.norm1 = LayerNorm(model_dim)
        self.attn = MultiHeadAttention(model_dim, num_heads, rng, causal=causal)
        self.cross = None
        self.norm_cross = None
        if cross_attention:
            self.norm_cross = LayerNorm(model_dim)
            self.cross = MultiHeadAttention(model_dim, num_heads, rng)
        self.norm2 = LayerNorm(model_dim)
        self.ffn = ffn

    def forward(
        self,
        x: Tensor,
        context: Optional[Tensor] = None,
        self_mask: Optional[np.ndarray] = None,
        context_mask: Optional[np.ndarray] = None,
    ) -> Tensor:
        x = x + self.attn(self.norm1(x), mask=self_mask)
        if self.cross is not None:
            if context is None:
                raise ValueError("cross-attention block requires context")
            x = x + self.cross(
                self.norm_cross(x), context=context, mask=context_mask
            )
        return x + self.ffn(self.norm2(x))

    @property
    def moe_layer(self) -> Optional[MoELayer]:
        """The block's MoE layer, if its ffn is one."""
        return self.ffn if isinstance(self.ffn, MoELayer) else None


def collect_aux_loss(module: Module) -> Optional[Tensor]:
    """Sum the load-balancing losses of every MoE layer in a model."""
    total: Optional[Tensor] = None
    for sub in module.modules():
        if isinstance(sub, MoELayer) and sub.last_aux_loss is not None:
            total = sub.last_aux_loss if total is None else total + sub.last_aux_loss
    return total


#: Weight of the summed load-balancing loss in every model's training
#: loss.
AUX_LOSS_WEIGHT = 0.01


def with_aux_loss(model: Module, nll: Tensor) -> Tensor:
    """``nll`` plus ``AUX_LOSS_WEIGHT`` times the model's aux loss."""
    aux = collect_aux_loss(model)
    return nll if aux is None else nll + aux * AUX_LOSS_WEIGHT


def sinusoidal_positions(seq_len: int, dim: int) -> np.ndarray:
    """Standard sinusoidal positional encoding, (seq_len, dim)."""
    positions = np.arange(seq_len)[:, None].astype(np.float32)
    div = np.exp(
        np.arange(0, dim, 2, dtype=np.float32) * (-np.log(10000.0) / dim)
    )
    enc = np.zeros((seq_len, dim), dtype=np.float32)
    enc[:, 0::2] = np.sin(positions * div)
    enc[:, 1::2] = np.cos(positions * div[: enc[:, 1::2].shape[1]])
    return enc
