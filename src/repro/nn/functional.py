"""Differentiable neural-network primitives on :class:`Tensor`.

Everything the paper's models need: relu, softmax (for gates),
layer normalization, fused scaled dot-product attention, embedding
lookup and the cross-entropy loss.

Each primitive has one forward.  It always computes its output the
same way, and :meth:`~repro.nn.tensor.Tensor._make` decides whether
to attach the backward closure, so under
:func:`~repro.nn.tensor.inference_mode` the output is bit-identical to
the training forward's and only the tape is missing.

Row maxima are seeded with their identity: they are
``np.maximum.reduce(x, axis, initial=-np.inf)``, not an unseeded
``x.max``.  Numpy takes a slow path for a reduction whose ufunc
has no identity, and ``maximum`` has none; the seed skips it.  On the
causal attention blocks ``(8, 4, 32, w)`` the row max costs 166, 173,
186 and 207 µs unseeded for w = 32, 64, 128 and 256, and 63, 72, 72
and 87 µs seeded (2-CPU SkylakeX, one BLAS thread).  Row sums have no
such gap: ``add`` has an identity.  A max is exact in any order and
the seed wins only on an all ``-inf`` row, where both forms return
``-inf``; NaN propagates in both.  At most the sign of a zero max can
differ, and ``exp(x − m)`` maps either to the same bits.  A seeded
reduction over an empty axis returns the seed instead of raising, so
:func:`softmax` and :func:`scaled_dot_product_attention` refuse one
themselves.  :func:`cross_entropy` keeps the unseeded max: its shifted
logits reach the log-probabilities without an ``exp``, where a zero's
sign could show, and it runs once per training step.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .tensor import Tensor, _pairwise_split, _scatter_add_rows


def relu(x: Tensor) -> Tensor:
    """max(x, 0), one branch-free pass in both modes.

    ``-0.0`` maps to ``+0.0`` and NaN propagates (a NaN input yields a
    NaN output, in training as in inference).  The backward saves the
    output, not the input, and recomputes the mask as ``out > 0``: that
    is ``x > 0`` bit for bit (a positive ``x``, subnormals and ``+inf``
    included, passes through unchanged; ±0.0 and every negative become
    +0.0; NaN stays NaN, and NaN > 0 is False), so the pre-activation
    is freed once its producer's backward no longer needs it.
    """
    out = np.maximum(x.data, np.float32(0.0))

    def backward(g):
        return (g * (out > 0),)

    return x._make(out, (x,), backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``.

    Subtract the row max (seeded, see the module docstring), ``exp``
    and divide by the row sum, all in one buffer; the backward keeps
    only that buffer, the output.  An empty ``axis`` raises
    ``ValueError``.
    """
    if x.shape[axis] == 0:
        raise ValueError(f"softmax over an empty axis {axis} of shape {x.shape}")
    s = x.data - np.maximum.reduce(x.data, axis=axis, keepdims=True, initial=-np.inf)
    np.exp(s, out=s)
    np.divide(s, s.sum(axis=axis, keepdims=True), out=s)

    def backward(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        return (s * (g - dot),)

    return x._make(s, (x,), backward)


#: Query rows per causal attention block (a multiple of 8, see _row_sum).
_ATTN_BLOCK = 32


#: Additive mask for a diagonal tile: 0 on and below the diagonal,
#: -1e9 above it.  A shorter last block uses its top-left corner.
_CAUSAL_TILE = np.where(
    np.tril(np.ones((_ATTN_BLOCK, _ATTN_BLOCK), bool)), 0.0, -1e9
).astype(np.float32)
_CAUSAL_TILE.flags.writeable = False


def _row_sum(x: np.ndarray, n: int) -> np.ndarray:
    """Last-axis sums of ``x`` as numpy sums each row zero-padded to ``n``.

    ``x`` is (..., w) with ``w == n`` or ``w`` a multiple of 8.  Numpy
    sums a contiguous float row pairwise (:func:`_pairwise_split`);
    below 128 elements eight strided accumulators run to the end, so
    trailing zeros leave them unchanged.  Following the splits down to
    the halves that hold data reproduces the padded sum bit for bit.
    """
    w = x.shape[-1]
    while w < n and n > 128:
        half = _pairwise_split(n)
        if w > half:
            left = x[..., :half].sum(axis=-1, keepdims=True)
            return left + _row_sum(x[..., half:], n - half)
        n = half
    return x.sum(axis=-1, keepdims=True)


def _bias_block(bias: np.ndarray, a: int, b: int, w: int) -> np.ndarray:
    """Rows ``[a, b)`` and keys ``[0, w)`` of a bias broadcast against
    (..., Tq, Tk) scores."""
    if bias.ndim >= 2 and bias.shape[-2] != 1:
        bias = bias[..., a:b, :]
    return bias if bias.shape[-1] == 1 else bias[..., :w]


def _key_column(parts: Sequence[np.ndarray], c: int, d: int) -> np.ndarray:
    """Key columns ``[c, d)`` of consecutive query blocks' arrays,
    stacked along the query axis into one contiguous operand."""
    if len(parts) == 1:
        return np.ascontiguousarray(parts[0][..., c:d])
    return np.concatenate([part[..., c:d] for part in parts], axis=-2)


def scaled_dot_product_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    scale: float,
    biases: Sequence[np.ndarray] = (),
    causal: bool = False,
) -> Tensor:
    """``softmax(q kᵀ · scale + Σ biases) v`` as one autograd node.

    ``q`` is (..., Tq, D), ``k`` (..., Tk, D), ``v`` (..., Tk, Dv) with
    the same leading dimensions; each bias broadcasts against the
    (..., Tq, Tk) scores and is added in the order given.  ``causal``
    (self-attention, Tq == Tk) lets query ``i`` see keys ``0..i`` only,
    as a last bias of -1e9 above the diagonal would.  ``Tk == 0`` and a
    ``scale`` that is not finite in float32 raise ``ValueError``.

    The scores are computed one block of query rows at a time.  Causal
    block ``[a, b)`` of ``_ATTN_BLOCK`` rows scores keys ``[0, b)``
    only and masks its diagonal tile: every later key would get weight
    exactly 0, so the masked triangle is never computed.  Any other
    call is one block over every key.  Each block runs the composed
    chain's floating-point ops in its order — ``q @ kᵀ``, ``× scale``,
    ``+`` each bias, subtract the row max, ``exp``, divide by the row
    sum (:func:`_row_sum`, the sum of the zero-padded row), ``@ v`` —
    in place on one contiguous buffer.  Without a tape every block
    reuses one work buffer and no (Tq, Tk) array exists at all.  With
    one, each block's ``(..., b − a, b)`` probabilities get a buffer of
    their own, and those are all the node keeps besides q, k and v: the
    lower block triangle, Σ (b − a)·b elements per (batch, head) (56%
    of the square at Tq = 256), and never the zeros above it.

    The hand-written backward runs the same blocks through the composed
    tape's expressions (matmul adjoints, softmax ``s · (g − Σ g·s)``,
    ``× scale``) and skips the gradients of the constant scale and
    biases, which the tape would discard.  For key block ``[c, d)`` it
    gathers column ``[c, d)`` of every later query block's
    probabilities (and score gradients) into one contiguous operand, so
    the dk and dv GEMMs keep the shapes of a square tape's slices.
    """
    if not np.isfinite(np.float32(scale)):
        raise ValueError(f"attention scale must be finite in float32, got {scale}")
    scale = np.float32(scale)
    lead, t_q, t_k = q.shape[:-2], q.shape[-2], k.shape[-2]
    if t_k == 0:
        raise ValueError("attention needs at least one key, got t_k == 0")
    if causal and t_q != t_k:
        raise ValueError(f"causal attention needs t_q == t_k, got {t_q} and {t_k}")
    if causal:
        blocks = [
            (a, min(a + _ATTN_BLOCK, t_q)) for a in range(0, t_q, _ATTN_BLOCK)
        ]
    else:
        blocks = [(0, t_q)]
    n_lead = int(np.prod(lead, dtype=np.int64))
    tape = Tensor._needs_grad(q, k, v)
    rows = min(_ATTN_BLOCK, t_q) if causal else t_q
    work = None if tape else np.empty(n_lead * rows * t_k, np.float32)
    saved = []
    k_t = np.swapaxes(k.data, -1, -2)
    out = np.empty(lead + (t_q, v.shape[-1]), np.float32)
    for a, b in blocks:
        w = b if causal else t_k
        shape = lead + (b - a, w)
        if tape:
            blk = np.empty(shape, np.float32)
            saved.append(blk)
        else:
            blk = work[: n_lead * (b - a) * w].reshape(shape)
        np.matmul(q.data[..., a:b, :], k_t[..., :w], out=blk)
        np.multiply(blk, scale, out=blk)
        for bias in biases:
            np.add(blk, _bias_block(bias, a, b, w), out=blk)
        if causal:
            tile = blk[..., a:b]
            np.add(tile, _CAUSAL_TILE[: b - a, : b - a], out=tile)
        peak = np.maximum.reduce(blk, axis=-1, keepdims=True, initial=-np.inf)
        np.subtract(blk, peak, out=blk)
        np.exp(blk, out=blk)
        np.divide(blk, _row_sum(blk, t_k), out=blk)
        np.matmul(blk, v.data[..., :w, :], out=out[..., a:b, :])
    if not tape:
        return Tensor(out)
    q_data, k_data, v_data = q.data, k.data, v.data

    def backward(g):
        v_t = np.swapaxes(v_data, -1, -2)
        gq = np.empty(q_data.shape, np.float32)
        gs = []
        for (a, b), probs in zip(blocks, saved):
            w = b if causal else t_k
            blk = np.matmul(g[..., a:b, :], v_t[..., :w])
            dot = _row_sum(blk * probs, t_k)
            np.subtract(blk, dot, out=blk)
            np.multiply(probs, blk, out=blk)
            np.multiply(blk, scale, out=blk)
            np.matmul(blk, k_data[..., :w, :], out=gq[..., a:b, :])
            gs.append(blk)
        # Key block [c, d) is seen by query rows c..Tq-1 only: one
        # matmul each over exactly those rows.
        q_t = np.swapaxes(q_data, -1, -2)
        gv = np.empty(v_data.shape, np.float32)
        gk_t = np.empty(lead + (q_data.shape[-1], t_k), np.float32)
        for j, (c, d) in enumerate(blocks if causal else [(0, t_k)]):
            np.matmul(
                np.swapaxes(_key_column(saved[j:], c, d), -1, -2),
                g[..., c:, :],
                out=gv[..., c:d, :],
            )
            np.matmul(q_t[..., c:], _key_column(gs[j:], c, d), out=gk_t[..., c:d])
        return gq, np.swapaxes(gk_t, -1, -2), gv

    return Tensor._make(out, (q, k, v), backward)


def _check_eps(eps: float) -> None:
    """Refuse a layer-norm ``eps`` that is not finite and > 0 (NaN
    fails ``eps > 0``)."""
    if not eps > 0 or not np.isfinite(eps):
        raise ValueError(f"layer norm eps must be finite and > 0, got {eps}")


def layer_norm(
    x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5
) -> Tensor:
    """Layer normalization over the last dimension.

    ``eps`` must be finite and > 0.  Each row statistic is computed
    once, as ``x.mean`` and ``x.var`` compute it, bit for bit: the row
    sum divided in place by ``np.intp(d)`` with ``casting="unsafe"``
    (numpy's own division, so the bits match at any ``d``), then
    ``x − mu`` once, which both the variance and the output read.
    """
    _check_eps(eps)
    d = x.shape[-1]
    mu = x.data.sum(axis=-1, keepdims=True)
    np.true_divide(mu, np.intp(d), out=mu, casting="unsafe")
    xhat = x.data - mu
    var = np.square(xhat).sum(axis=-1, keepdims=True)
    np.true_divide(var, np.intp(d), out=var, casting="unsafe")
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    out = xhat * weight.data
    out += bias.data

    w = weight.data

    def backward(g):
        gx_hat = g * w
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
        return gx, (g * xhat).sum(axis=axes), g.sum(axis=axes)

    return Tensor._make(out, (x, weight, bias), backward)


def _check_ids(ids: np.ndarray, num: int, what: str) -> None:
    """Refuse ids outside ``[0, num)``: numpy would wrap a negative id
    to a row from the end instead of failing."""
    if ids.size and (ids.min() < 0 or ids.max() >= num):
        raise ValueError(
            f"{what} must lie in [0, {num}), got values in "
            f"[{ids.min()}, {ids.max()}]"
        )


def embedding(weight: Tensor, indices: np.ndarray) -> Tensor:
    """Row lookup ``weight[indices]`` with scatter-add gradient.

    Every index must lie in ``[0, V)`` for a ``(V, ...)`` table.
    """
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise TypeError(f"indices must be integers, got {idx.dtype}")
    _check_ids(idx, weight.shape[0], "embedding indices")
    shape = weight.shape

    def backward(g):
        grad = np.zeros(shape, np.float32)
        _scatter_add_rows(
            grad, idx.reshape(-1), g.reshape((idx.size,) + shape[1:])
        )
        return (grad,)

    return weight._make(weight.data[idx], (weight,), backward)


def cross_entropy(
    logits: Tensor,
    targets: np.ndarray,
    ignore_index: Optional[int] = None,
) -> Tensor:
    """Mean token-level cross entropy from raw logits.

    ``logits`` has shape (..., vocab); ``targets`` the matching integer
    shape, each in ``[0, vocab)``.  ``ignore_index`` (any value) masks
    padding tokens out of the mean.
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
    _check_ids(safe_targets, logits.shape[-1], "targets")

    shifted = flat_logits - flat_logits.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - logsumexp
    rows = np.arange(flat_targets.shape[0])
    losses = -logp[rows, safe_targets] * mask
    value = losses.sum() / count

    shape = logits.shape

    def backward(g):
        probs = np.exp(logp)
        probs[rows, safe_targets] -= 1.0
        probs *= (mask / count)[:, None]
        return ((g * probs).reshape(shape),)

    return logits._make(value, (logits,), backward)


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
    shape = x.shape

    def backward(g):
        along = axis % len(shape)
        grid = np.indices(idx.shape, sparse=True)
        # The forward already rejected out-of-range indices; "wrap"
        # only maps the negative ones take_along_axis accepted.
        flat = np.ravel_multi_index(
            tuple(idx if a == along else grid[a] for a in range(len(shape))),
            shape,
            mode="wrap",
        )
        grad = np.zeros(shape, dtype=np.float32)
        _scatter_add_rows(grad.reshape(-1), flat.reshape(-1), g.reshape(-1))
        return (grad,)

    return x._make(data, (x,), backward)
