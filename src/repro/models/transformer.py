"""Encoder-decoder transformer (the paper's Transformer / Transformer-MoE).

Used for the translation task of Table 6 (BLEU column).  The MoE
variant replaces every feed-forward layer in both the encoder and the
decoder with an MoE layer.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..compression.base import Compressor
from ..data.vocab import PAD
from ..nn import functional as F
from ..nn.modules import Embedding, LayerNorm, Linear, Module, ModuleList
from ..nn.tensor import Tensor
from .blocks import TransformerBlock, make_ffn, sinusoidal_positions, with_aux_loss


class Seq2SeqTransformer(Module):
    """Encoder-decoder with optional MoE feed-forwards.

    Token id ``vocab.PAD`` pads both sides: it is masked out of
    attention and of the loss.
    """

    def __init__(
        self,
        src_vocab: int,
        tgt_vocab: int,
        model_dim: int = 64,
        hidden_dim: int = 128,
        num_layers: int = 2,
        num_heads: int = 4,
        max_seq_len: int = 64,
        moe: bool = False,
        num_experts: int = 8,
        top_k: int = 2,
        capacity_factor: float = 1.25,
        compressor: Optional[Compressor] = None,
        seed: int = 0,
    ):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.model_dim = model_dim
        self.max_seq_len = max_seq_len
        self.src_embed = Embedding(src_vocab, model_dim, rng)
        self.tgt_embed = Embedding(tgt_vocab, model_dim, rng)
        self._positions = sinusoidal_positions(max_seq_len, model_dim)

        def ffn():
            return make_ffn(
                model_dim,
                hidden_dim,
                rng,
                moe=moe,
                num_experts=num_experts,
                top_k=top_k,
                capacity_factor=capacity_factor,
                compressor=compressor,
            )

        self.encoder = ModuleList(
            [
                TransformerBlock(model_dim, num_heads, ffn(), rng)
                for _ in range(num_layers)
            ]
        )
        self.decoder = ModuleList(
            [
                TransformerBlock(
                    model_dim,
                    num_heads,
                    ffn(),
                    rng,
                    causal=True,
                    cross_attention=True,
                )
                for _ in range(num_layers)
            ]
        )
        self.enc_norm = LayerNorm(model_dim)
        self.dec_norm = LayerNorm(model_dim)
        self.head = Linear(model_dim, tgt_vocab, rng, bias=False)

    def encode(self, src: np.ndarray) -> Tensor:
        """(B, Ls) int source tokens -> (B, Ls, M) memory."""
        src = np.asarray(src)
        mask = src != PAD
        x = self.src_embed(src) + Tensor(self._positions[: src.shape[1]])
        for block in self.encoder:
            x = block(x, self_mask=mask)
        return self.enc_norm(x)

    def forward(self, src: np.ndarray, tgt_in: np.ndarray) -> Tensor:
        """Teacher-forced logits: (B, Lt, tgt_vocab)."""
        src = np.asarray(src)
        tgt_in = np.asarray(tgt_in)
        if src.shape[0] != tgt_in.shape[0]:
            raise ValueError("source and target batch sizes differ")
        memory = self.encode(src)
        src_mask = src != PAD
        y = self.tgt_embed(tgt_in) + Tensor(self._positions[: tgt_in.shape[1]])
        for block in self.decoder:
            y = block(y, context=memory, context_mask=src_mask)
        return self.head(self.dec_norm(y))

    def loss(
        self, src: np.ndarray, tgt_in: np.ndarray, tgt_out: np.ndarray
    ) -> Tensor:
        """Cross entropy over non-pad target tokens (+ the MoE aux loss,
        weighted by ``blocks.AUX_LOSS_WEIGHT``)."""
        logits = self.forward(src, tgt_in)
        nll = F.cross_entropy(logits, tgt_out, ignore_index=PAD)
        return with_aux_loss(self, nll)

    def greedy_decode(
        self, src: np.ndarray, bos_id: int, eos_id: int, max_len: int = 32
    ) -> np.ndarray:
        """Greedy generation; returns (B, <=max_len) without BOS."""
        src = np.asarray(src)
        batch = src.shape[0]
        memory = self.encode(src)
        src_mask = src != PAD
        out = np.full((batch, 1), bos_id, dtype=np.int64)
        finished = np.zeros(batch, dtype=bool)
        for _ in range(max_len):
            y = self.tgt_embed(out) + Tensor(self._positions[: out.shape[1]])
            for block in self.decoder:
                y = block(y, context=memory, context_mask=src_mask)
            logits = self.head(self.dec_norm(y))
            next_tokens = logits.data[:, -1].argmax(axis=-1)
            next_tokens = np.where(finished, PAD, next_tokens)
            out = np.concatenate([out, next_tokens[:, None]], axis=1)
            finished |= next_tokens == eos_id
            if finished.all():
                break
        return out[:, 1:]
