"""Differentiable neural-network primitives on :class:`Tensor`.

Everything the paper's models need: activations, normalization,
softmax/log-softmax (for gates and output heads), fused scaled
dot-product attention, embedding lookup, dropout and the cross-entropy
loss.

Under :func:`~repro.nn.tensor.inference_mode` the hot primitives
(gelu, softmax, layer_norm, embedding) skip their backward-only
intermediates, and they and relu write results into the ambient
arena's pooled buffers via ``out=`` — same floating-point operations
in the same order, so outputs stay bit-identical to the training-mode
forward.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .tensor import (
    Tensor,
    _arena_out,
    _scatter_add_rows,
    is_inference,
    scratch_empty,
)


def relu(x: Tensor) -> Tensor:
    """max(x, 0), one branch-free pass in both modes.

    ``-0.0`` maps to ``+0.0`` and NaN propagates (a NaN input yields a
    NaN output, in training as in inference).  The backward recomputes
    the ``x > 0`` mask from ``x`` instead of keeping it on the tape.
    """

    def backward(g):
        return ((x, g * (x.data > 0)),)

    out = np.maximum(x.data, np.float32(0.0), out=_arena_out(x.shape))
    return x._make(out, (x,), backward)


def gelu(x: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation)."""
    c = np.float32(np.sqrt(2.0 / np.pi))
    u = c * (x.data + 0.044715 * x.data**3)
    t = np.tanh(u, out=u) if is_inference() else np.tanh(u)
    if is_inference():
        # Same expression tree as below — ((0.5 * x) * (1 + t)) — with
        # the final product landing in a pooled buffer.
        return Tensor(
            np.multiply(0.5 * x.data, 1.0 + t, out=_arena_out(x.shape))
        )
    out = 0.5 * x.data * (1.0 + t)

    def backward(g):
        du = c * (1.0 + 3 * 0.044715 * x.data**2)
        dt = (1.0 - t * t) * du
        grad = 0.5 * (1.0 + t) + 0.5 * x.data * dt
        return ((x, g * grad),)

    return x._make(out, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    t = np.tanh(x.data)

    def backward(g):
        return ((x, g * (1.0 - t * t)),)

    return x._make(t, (x,), backward)


def exp(x: Tensor) -> Tensor:
    """Elementwise exponential."""
    e = np.exp(x.data)

    def backward(g):
        return ((x, g * e),)

    return x._make(e, (x,), backward)


def log(x: Tensor) -> Tensor:
    """Elementwise natural log."""

    def backward(g):
        return ((x, g / x.data),)

    return x._make(np.log(x.data), (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    if is_inference():
        # Same subtract / exp / divide sequence as below, fused into a
        # single pooled buffer (exp and the final divide run in place).
        s = np.subtract(
            x.data, x.data.max(axis=axis, keepdims=True), out=_arena_out(x.shape)
        )
        np.exp(s, out=s)
        np.divide(s, s.sum(axis=axis, keepdims=True), out=s)
        return Tensor(s)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        return ((x, s * (g - dot)),)

    return x._make(s, (x,), backward)


def scaled_dot_product_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    scale: float,
    biases: Sequence[np.ndarray] = (),
) -> Tensor:
    """``softmax(q kᵀ · scale + Σ biases) v`` as one autograd node.

    ``q`` is (..., Tq, D), ``k`` (..., Tk, D), ``v`` (..., Tk, Dv) with
    the same leading dimensions; each bias broadcasts against the
    (..., Tq, Tk) scores and is added in the order given.  The forward runs the composed chain's
    floating-point ops in the composed chain's order — ``q @ kᵀ``,
    ``× scale``, ``+ bias`` each, subtract the row max, ``exp``, divide
    by the row sum, ``@ v`` — but in place on a single scores buffer
    (arena-backed under inference), so the tape keeps one (..., Tq, Tk)
    array per call instead of four.  The hand-written backward
    evaluates the composed tape's expressions (matmul adjoints, softmax
    ``s · (g − Σ g·s)``, ``× scale``) and skips the gradients of the
    constant scale and biases, which the tape would discard.
    """
    scale = np.float32(scale)
    s = scratch_empty(q.shape[:-1] + k.shape[-2:-1])
    np.matmul(q.data, np.swapaxes(k.data, -1, -2), out=s)
    np.multiply(s, scale, out=s)
    for bias in biases:
        np.add(s, bias, out=s)
    np.subtract(s, s.max(axis=-1, keepdims=True), out=s)
    np.exp(s, out=s)
    np.divide(s, s.sum(axis=-1, keepdims=True), out=s)
    out = np.matmul(s, v.data, out=_arena_out(s.shape[:-1] + v.shape[-1:]))

    def backward(g):
        gs = g @ np.swapaxes(v.data, -1, -2)
        gv = np.swapaxes(s, -1, -2) @ g
        dot = (gs * s).sum(axis=-1, keepdims=True)
        np.subtract(gs, dot, out=gs)
        np.multiply(s, gs, out=gs)
        np.multiply(gs, scale, out=gs)
        gq = gs @ k.data
        gk = np.swapaxes(np.swapaxes(q.data, -1, -2) @ gs, -1, -2)
        return ((q, gq), (k, gk), (v, gv))

    if Tensor._needs_grad(q, k, v):
        return Tensor(out, _parents=(q, k, v), _backward=backward)
    return Tensor(out)


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    if not training or p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    keep = (rng.random(x.shape) >= p).astype(np.float32) / (1.0 - p)

    def backward(g):
        return ((x, g * keep),)

    return x._make(x.data * keep, (x,), backward)


def layer_norm(
    x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5
) -> Tensor:
    """Layer normalization over the last dimension."""
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    if is_inference():
        # Identical op sequence to the training path — (x - mu) * inv,
        # * weight, + bias — chained in place through one pooled buffer.
        xhat = np.subtract(x.data, mu, out=_arena_out(x.shape))
        np.multiply(xhat, inv, out=xhat)
        np.multiply(xhat, weight.data, out=xhat)
        np.add(xhat, bias.data, out=xhat)
        return Tensor(xhat)
    xhat = (x.data - mu) * inv
    out = xhat * weight.data + bias.data

    def backward(g):
        d = x.data.shape[-1]
        gx_hat = g * weight.data
        # On a near-constant row (var below 1e3 * eps) inv is large and
        # the fp32 xhat no longer sums to zero, so dx would pick up a
        # spurious component along the ones vector.  Re-centre xhat on
        # those rows only; every other row keeps its bits.
        xc = xhat
        near_constant = var < 1e3 * eps
        if near_constant.any():
            xc = np.where(
                near_constant, xhat - xhat.mean(axis=-1, keepdims=True), xhat
            )
        gx = (
            inv
            / d
            * (
                d * gx_hat
                - gx_hat.sum(axis=-1, keepdims=True)
                - xc * (gx_hat * xc).sum(axis=-1, keepdims=True)
            )
        )
        axes = tuple(range(g.ndim - 1))
        return (
            (x, gx),
            (weight, (g * xhat).sum(axis=axes)),
            (bias, g.sum(axis=axes)),
        )

    if Tensor._needs_grad(x, weight, bias):
        return Tensor(out, _parents=(x, weight, bias), _backward=backward)
    return Tensor(out)


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup ``weight[indices]`` with scatter-add gradient."""
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise TypeError(f"indices must be integers, got {idx.dtype}")
    if is_inference():
        out = _arena_out(idx.shape + weight.data.shape[1:])
        if out is not None:
            return Tensor(np.take(weight.data, idx, axis=0, out=out))
        return Tensor(weight.data[idx])

    def backward(g):
        grad = np.zeros_like(weight.data)
        _scatter_add_rows(
            grad, idx.reshape(-1), g.reshape((idx.size,) + weight.shape[1:])
        )
        return ((weight, grad),)

    return weight._make(weight.data[idx], (weight,), backward)


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    ignore_index: Optional[int] = None,
) -> Tensor:
    """Mean token-level cross entropy from raw logits.

    ``logits`` has shape (..., vocab); ``targets`` the matching integer
    shape.  ``ignore_index`` masks padding tokens out of the mean.
    """
    targets = np.asarray(targets)
    if targets.shape != logits.shape[:-1]:
        raise ValueError(
            f"targets shape {targets.shape} incompatible with logits "
            f"{logits.shape}"
        )
    flat_logits = logits.data.reshape(-1, logits.shape[-1])
    flat_targets = targets.reshape(-1)
    if ignore_index is not None:
        mask = flat_targets != ignore_index
    else:
        mask = np.ones_like(flat_targets, dtype=bool)
    count = max(int(mask.sum()), 1)
    safe_targets = np.where(mask, flat_targets, 0)

    shifted = flat_logits - flat_logits.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - logsumexp
    rows = np.arange(flat_targets.shape[0])
    losses = -logp[rows, safe_targets] * mask
    value = losses.sum() / count

    def backward(g):
        probs = np.exp(logp)
        probs[rows, safe_targets] -= 1.0
        probs *= (mask / count)[:, None]
        return ((logits, (g * probs).reshape(logits.shape)),)

    if Tensor._needs_grad(logits):
        return Tensor(value, _parents=(logits,), _backward=backward)
    return Tensor(value)


def top_k_indices(scores: np.ndarray, k: int, axis: int = -1) -> np.ndarray:
    """Indices of the top ``k`` values along ``axis`` (descending).

    Operates on raw arrays: routing decisions are not differentiated
    through (only the gate *values* carry gradient, as in GShard).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > scores.shape[axis]:
        raise ValueError(
            f"k={k} exceeds dimension {scores.shape[axis]} along axis {axis}"
        )
    part = np.argpartition(-scores, k - 1, axis=axis)
    top = np.take(part, np.arange(k), axis=axis)
    top_vals = np.take_along_axis(scores, top, axis=axis)
    order = np.argsort(-top_vals, axis=axis, kind="stable")
    return np.take_along_axis(top, order, axis=axis)


def take_along_axis(x: Tensor, indices: np.ndarray, axis: int = -1) -> Tensor:
    """Differentiable ``np.take_along_axis``.

    Selects per-position entries along ``axis`` (the natural companion
    of :func:`top_k_indices`: pick each token's top-k gate values
    without materializing one-hot masks).  The backward pass
    scatter-adds the output gradient back to the selected positions,
    through the flat index of each one; top-k positions are unique
    per row, so that is one fancy-index add.
    """
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise TypeError(f"indices must be integers, got {idx.dtype}")
    if idx.ndim != x.ndim:
        raise ValueError(
            f"indices ndim {idx.ndim} must match tensor ndim {x.ndim}"
        )
    data = np.take_along_axis(x.data, idx, axis=axis)

    def backward(g):
        along = axis % x.ndim
        grid = np.indices(idx.shape, sparse=True)
        # The forward already rejected out-of-range indices; "wrap"
        # only maps the negative ones take_along_axis accepted.
        flat = np.ravel_multi_index(
            tuple(idx if a == along else grid[a] for a in range(x.ndim)),
            x.shape,
            mode="wrap",
        )
        grad = np.zeros(x.shape, dtype=np.float32)
        _scatter_add_rows(grad.reshape(-1), flat.reshape(-1), g.reshape(-1))
        return ((x, grad),)

    return x._make(data, (x,), backward)
