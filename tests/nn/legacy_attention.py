"""The composed attention op chain, kept as a test reference.

Production attention is one fused autograd node,
:func:`~repro.nn.functional.scaled_dot_product_attention`.  This is
the chain of separate tensor ops it replaced — ``q @ kᵀ``, ``× scale``,
``+ pad``, ``+ bias`` (all zeros unless causal), ``softmax``, ``@ v`` —
each a tape node of its own; the parity suites check the fused node's
outputs and gradients against it bit for bit.
"""

import numpy as np

from repro.nn import functional as F
from repro.nn.tensor import Tensor


def causal_bias(t_q, t_k):
    """The additive causal mask: 0 on and below the diagonal, -1e9 above."""
    return np.where(np.tril(np.ones((t_q, t_k), dtype=bool)), 0.0, -1e9).astype(
        np.float32
    )


def composed_attention(q, k, v, scale, biases=(), causal=False):
    """The fused primitive's semantics as separate tensor ops; ``causal``
    adds the full causal mask as a last bias."""
    scores = (q @ k.swapaxes(-1, -2)) * scale
    if causal:
        biases = list(biases) + [causal_bias(*scores.shape[-2:])]
    for bias in biases:
        scores = scores + Tensor(bias)
    return F.softmax(scores, axis=-1) @ v


def legacy_forward(self, x, context=None, mask=None):
    """``MultiHeadAttention.forward`` as it was before the fused node."""
    source = context if context is not None else x
    q = self._split(self.q_proj(x))
    k = self._split(self.k_proj(source))
    v = self._split(self.v_proj(source))

    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(self.head_dim))
    bias = np.zeros(scores.shape[-2:], dtype=np.float32)
    if self.causal and context is None:
        bias = causal_bias(*scores.shape[-2:])
    if mask is not None:
        # mask: (batch, t_k) boolean, True = attend.
        pad = np.where(mask[:, None, None, :], 0.0, -1e9).astype(np.float32)
        scores = scores + Tensor(pad)
    scores = scores + Tensor(bias)
    attn = F.softmax(scores, axis=-1)
    out = attn @ v
    b, h, t, d = out.shape
    out = out.transpose(0, 2, 1, 3).reshape(b, t, h * d)
    return self.out_proj(out)
