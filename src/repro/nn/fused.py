"""The MoE expert step's fused tape nodes.

Each computes what a chain of simpler ops computes, float op for float
op, as one node that allocates only what its backward reads:

* :func:`expert_ffn` — per expert segment, a 2-d GEMM plus the bias
  row, a ReLU, and a second GEMM plus bias: the grouped expert FFN;
* :func:`weighted_scatter_add` — the product ``values * weights``
  accumulated into its rows as ``np.add.at`` would, the sparse
  combine, through :func:`_weighted_parts`, which the expert-parallel
  D2 merge stages its rows with too.

The test suite keeps each chain as a reference
(``tests/nn/legacy_segment_matmul.py`` and
``tests/moe/legacy_expert_step.py``) and pins both nodes to it bit for
bit.
"""

from __future__ import annotations

import numpy as np

from .tensor import _CHUNK, Tensor, _row_sum, _scatter_add_parts, _unbroadcast

#: Largest per-segment LHS block (rows * K elements) that still gains
#: from the stacked-GEMM bucket path: beyond ~16 KB of float32 the
#: fancy-index gather costs more than the per-call overhead it saves
#: (measured on the bench shapes; 2-d BLAS on a contiguous slice wins).
_BUCKET_ROW_ELEMS = 4096


def _scatter_index(values: Tensor, indices: np.ndarray, num_rows: int):
    """``indices`` as an array, checked as scatter rows of ``values``."""
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise TypeError(f"indices must be integers, got {idx.dtype}")
    if idx.ndim != 1 or values.ndim < 1 or idx.shape[0] != values.shape[0]:
        raise ValueError(
            f"indices {idx.shape} must be 1-d and match the leading "
            f"dimension of values {values.shape}"
        )
    if num_rows < 0:
        raise ValueError(f"num_rows must be >= 0, got {num_rows}")
    if idx.size and (idx.min() < 0 or idx.max() >= num_rows):
        raise IndexError(
            f"indices out of range for {num_rows} rows: "
            f"[{idx.min()}, {idx.max()}]"
        )
    return idx


def _segment_counts(x_shape: tuple, w_shape: tuple, segment_counts) -> np.ndarray:
    """``segment_counts`` as an array, checked against (N, K) rows and
    an (E, K, J) weight bank."""
    counts = np.asarray(segment_counts)
    if not np.issubdtype(counts.dtype, np.integer):
        raise TypeError(f"segment_counts must be integers, got {counts.dtype}")
    if len(x_shape) != 2 or len(w_shape) != 3:
        raise ValueError(
            f"expert_ffn expects (N, K) x and (E, K, J) weight, "
            f"got {x_shape} and {w_shape}"
        )
    if counts.ndim != 1 or counts.shape[0] != w_shape[0]:
        raise ValueError(f"segment_counts {counts.shape} must be ({w_shape[0]},)")
    if counts.size and counts.min() < 0:
        raise ValueError("segment_counts must be >= 0")
    if x_shape[1] != w_shape[1]:
        raise ValueError(f"inner dimensions differ: {x_shape} @ {w_shape}")
    if int(counts.sum()) != x_shape[0]:
        raise ValueError(
            f"segment_counts sum {int(counts.sum())} != rows {x_shape[0]}"
        )
    return counts


def _segment_plan(counts: np.ndarray):
    """``(offsets, classes)``: where each segment starts, and the
    occupied segments grouped by length.

    ``classes`` lists ``(length, experts)`` by increasing length, each
    ``experts`` ascending.  A class of small equal-length segments runs
    as one stacked GEMM (:func:`_stacks`), so balanced large-E routing
    pays one GEMM call per distinct size instead of one per expert.
    """
    offsets = np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])
    occupied = np.nonzero(counts)[0]
    by_size: dict = {}
    for e, length in zip(occupied.tolist(), counts[occupied].tolist()):
        by_size.setdefault(length, []).append(e)
    return offsets, sorted(by_size.items())


def _stacks(length: int, experts: list, k: int) -> bool:
    """Whether a size class's GEMMs over inner dimension ``k`` run as
    one stacked ``np.matmul``: it has two or more members, and each
    member's (length, k) block is at most ``_BUCKET_ROW_ELEMS``."""
    return len(experts) > 1 and length * k <= _BUCKET_ROW_ELEMS


def _class_rows(offsets: np.ndarray, length: int, experts: list) -> np.ndarray:
    """The (B, length) row indices of a size class's segments."""
    return offsets[experts][:, None] + np.arange(length)


def _weighted_parts(weights: np.ndarray, parts):
    """Each ``(positions, rows)`` part, its rows times their weights.

    ``weights`` is a column, ``(n, 1)``: ``weights[positions]`` scales
    the part's rows, one float multiply per element as on the whole
    ``values * weights``.  Every product goes into one scratch block
    that the next part reuses, so a consumer that copies each part
    before it asks for the next — ``_scatter_add_parts`` stages it into
    the occurrence rounds — never sees an (n, J) weighted array.
    The single-process combine (:func:`weighted_scatter_add`) and the
    expert-parallel D2 merge both weight their rows here.
    """
    scratch = None
    for positions, rows in parts:
        if scratch is None or scratch.shape[0] < rows.shape[0]:
            scratch = np.empty(rows.shape, np.float32)
        staged = scratch[: rows.shape[0]]
        np.multiply(rows, weights[positions], out=staged)
        yield positions, staged


def weighted_scatter_add(
    values: Tensor,
    weights: Tensor,
    indices: np.ndarray,
    num_rows: int,
) -> Tensor:
    """``out[indices[n]] += values[n] * weights[n]`` as one node.

    ``values`` is (N, J) and ``weights`` an (N, 1) column: row n,
    scaled by ``weights[n]``, accumulates into ``out[indices[n]]``.
    The forward multiplies one ``_CHUNK``-element slice of rows at a
    time by its weights as :func:`_weighted_parts` stages it into the
    occurrence-round scatter, so no (N, J) weighted array exists in
    either mode; every element is the same ``row * w`` and every
    destination adds its rows in the same order as the two-node chain,
    so the output is bit-identical to it.  The backward is that chain's
    too: the gather ``g[indices]``, then the product's formulas, each
    factor saved only when the other needs a gradient.  ``indices``
    must lie in ``[0, num_rows)``; rows no index names stay zero.  This
    is the sparse MoE combine
    (:func:`~repro.moe.dispatch.combine_grouped`).
    """
    values = Tensor._lift(values)
    weights = Tensor._lift(weights)
    idx = _scatter_index(values, indices, num_rows)
    if values.ndim != 2 or weights.shape != (values.shape[0], 1):
        raise ValueError(
            f"weighted_scatter_add expects (N, J) values and (N, 1) "
            f"weights, got {values.shape} and {weights.shape}"
        )
    v, w = values.data, weights.data
    out = np.zeros((num_rows, v.shape[1]), np.float32)
    step = max(1, _CHUNK // max(1, v.shape[1]))
    slices = (
        (slice(lo, lo + step), v[lo : lo + step])
        for lo in range(0, v.shape[0], step)
    )
    _scatter_add_parts(out, idx, np.float32, _weighted_parts(w, slices))

    sv, sw = values.shape, weights.shape
    # Each factor is saved only for the other's gradient.
    a = v if Tensor._needs_grad(weights) else None
    b = w if Tensor._needs_grad(values) else None

    def backward(g):
        g = g[idx]
        return (
            None if b is None else _unbroadcast(g * b, sv),
            None if a is None else _unbroadcast(g * a, sw),
        )

    return Tensor._make(out, (values, weights), backward)


def expert_ffn(
    x: Tensor,
    w1: Tensor,
    b1: Tensor,
    w2: Tensor,
    b2: Tensor,
    segment_counts: np.ndarray,
) -> Tensor:
    """The grouped expert FFN, ``relu(x @ w1[e] + b1[e]) @ w2[e] + b2[e]``
    over each segment e, as one tape node.

    ``x`` is (N, M) with rows grouped into contiguous per-expert
    segments, ``segment_counts[e]`` rows for expert e, summing to N;
    ``w1`` is (E, M, H), ``b1`` (E, 1, H), ``w2`` (E, H, M) and ``b2``
    (E, 1, M), the stacked layout of :class:`~repro.moe.experts.Experts`.
    It computes, bit for bit, what the three-node chain computes — a
    segment GEMM plus bias, a ReLU node, a second segment GEMM plus
    bias, each GEMM one plain 2-d product per occupied segment — with
    one node and one size-class plan (``_segment_plan``):

    * Forward, per size class: the fc1 GEMM writes the hidden buffer,
      ``b1`` is added and the ReLU runs in place, then the fc2 GEMM and
      ``b2``.  No pre-ReLU (N, H) array exists.
    * The node saves ``x`` and the post-ReLU hidden ``h``, as the
      three-node chain did.
    * Backward, per segment (or per stacked class) while its gradient
      is in cache: ``gh = g·w2ᵀ``, ``gw2 = hᵀ·g``, ``gb2 = row_sum(g)``,
      ``gh *= (h > 0)`` (a multiply, as ``relu``'s backward, so −0.0
      and NaN keep their bits), ``gw1 = xᵀ·gh``, ``gb1 = row_sum(gh)``,
      and ``gx = gh·w1ᵀ`` only when ``x`` needs a gradient.  No (N, H)
      gradient exists, only one segment's or one class's.

    A class of small equal-length segments runs a GEMM as one stacked
    ``np.matmul`` (``_stacks``: two or more members, each (length, K)
    block at most ``_BUCKET_ROW_ELEMS``), whose slices are computed
    exactly as the plain 2-d products; fc1 and fc2 decide separately,
    for inner dimension M and H.  Empty experts cost nothing and get
    exactly zero weight and bias gradients.
    """
    x, w1, b1, w2, b2 = (Tensor._lift(t) for t in (x, w1, b1, w2, b2))
    counts = _segment_counts(x.shape, w1.shape, segment_counts)
    num_experts, model_dim, hidden = w1.shape
    for name, t, shape in (
        ("b1", b1, (num_experts, 1, hidden)),
        ("w2", w2, (num_experts, hidden, model_dim)),
        ("b2", b2, (num_experts, 1, model_dim)),
    ):
        if t.shape != shape:
            raise ValueError(
                f"{name} {t.shape} must be {shape} for w1 {w1.shape}"
            )
    offsets, classes = _segment_plan(counts)
    # Per class: its experts, length, (B, L) row indices when either
    # GEMM stacks, and whether fc1 and fc2 stack.
    plan = []
    for length, experts in classes:
        stack1 = _stacks(length, experts, model_dim)
        stack2 = _stacks(length, experts, hidden)
        rows = (
            _class_rows(offsets, length, experts) if stack1 or stack2 else None
        )
        plan.append((experts, length, rows, stack1, stack2))

    xd, w1d, b1d, w2d, b2d = (t.data for t in (x, w1, b1, w2, b2))
    zero = np.float32(0.0)
    h = np.empty((x.shape[0], hidden), np.float32)
    data = np.empty((x.shape[0], model_dim), np.float32)
    for experts, _, rows, stack1, stack2 in plan:
        h_b = None
        if stack1:
            h_b = np.matmul(xd[rows], w1d[experts])
            h_b += b1d[experts]
            np.maximum(h_b, zero, out=h_b)
            h[rows] = h_b
        else:
            for e in experts:
                lo, hi = offsets[e], offsets[e + 1]
                seg = h[lo:hi]
                np.matmul(xd[lo:hi], w1d[e], out=seg)
                seg += b1d[e]
                np.maximum(seg, zero, out=seg)
        if stack2:
            out = np.matmul(h[rows] if h_b is None else h_b, w2d[experts])
            out += b2d[experts]
            data[rows] = out
        else:
            for e in experts:
                lo, hi = offsets[e], offsets[e + 1]
                out = data[lo:hi]
                np.matmul(h[lo:hi], w2d[e], out=out)
                out += b2d[e]

    need_x = Tensor._needs_grad(x)

    def backward(g):
        gc = np.ascontiguousarray(g)  # _row_sum's order needs C rows
        gx = np.empty_like(xd) if need_x else None
        # Every occupied expert's slice is overwritten below.
        gw1, gw2 = np.empty_like(w1d), np.empty_like(w2d)
        gw1[counts == 0] = 0.0
        gw2[counts == 0] = 0.0
        gb1 = np.zeros(b1d.shape, np.float32)
        gb2 = np.zeros(b2d.shape, np.float32)

        def fc2(e, out=None):
            """fc2's weight gradient for segment e; returns the segment's
            hidden gradient through the ReLU, into ``out`` if given."""
            lo, hi = offsets[e], offsets[e + 1]
            gh = np.matmul(g[lo:hi], w2d[e].T, out=out)
            np.matmul(h[lo:hi].T, g[lo:hi], out=gw2[e])
            gh *= h[lo:hi] > 0
            return gh

        def fc1(e, gh):
            """fc1's gradients from segment e's hidden gradient."""
            lo, hi = offsets[e], offsets[e + 1]
            np.matmul(xd[lo:hi].T, gh, out=gw1[e])
            gb1[e] = _row_sum(gh)
            if need_x:
                np.matmul(gh, w1d[e].T, out=gx[lo:hi])

        for experts, length, rows, stack1, stack2 in plan:
            for e in experts:
                gb2[e] = _row_sum(gc[offsets[e]:offsets[e + 1]])
            if stack2:
                g_b, h_b = g[rows], h[rows]
                gh = np.matmul(g_b, np.swapaxes(w2d[experts], -1, -2))
                gw2[experts] = np.matmul(np.swapaxes(h_b, -1, -2), g_b)
                gh *= h_b > 0
            elif stack1:
                # Only fc1 stacks: its (B, L, H) operand gathers the
                # segments' hidden gradients.
                gh = np.empty((len(experts), length, hidden), np.float32)
                for i, e in enumerate(experts):
                    fc2(e, out=gh[i])
            else:
                for e in experts:
                    fc1(e, fc2(e))
                continue
            if stack1:
                gw1[experts] = np.matmul(np.swapaxes(xd[rows], -1, -2), gh)
                if need_x:
                    gx[rows] = np.matmul(gh, np.swapaxes(w1d[experts], -1, -2))
                for i, e in enumerate(experts):
                    gb1[e] = _row_sum(gh[i])
            else:
                for i, e in enumerate(experts):
                    fc1(e, gh[i])
        return gx, gw1, gb1, gw2, gb2

    return Tensor._make(data, (x, w1, b1, w2, b2), backward)
