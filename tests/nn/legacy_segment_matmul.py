"""The unbucketed segment matmul, kept as a test reference.

Production runs the expert FFN as one node,
:func:`~repro.nn.fused.expert_ffn`, which batches small equal-length
segments into stacked GEMMs and adds each segment's bias inside its
GEMM loop.  This is the form it replaced: one plain 2-d GEMM per
occupied segment, then the bias added once over all rows through an
``(N, J)`` ``np.repeat`` of the bias bank.  :func:`legacy_expert_ffn`
is the expert step built from it, two of these around a ReLU node.
The parity suites check the fused forward and backward against it bit
for bit.
"""

import numpy as np

from repro.nn import functional as F
from repro.nn.tensor import Tensor, _row_sum


def legacy_segment_matmul(x, weight, segment_counts, bias=None):
    """Per-segment GEMM loop plus a repeated-row bias add."""
    x = Tensor._lift(x)
    weight = Tensor._lift(weight)
    counts = np.asarray(segment_counts)
    inputs = (x, weight)
    if bias is not None:
        bias = Tensor._lift(bias)
        inputs = (x, weight, bias)
    offsets = np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])
    occupied = np.nonzero(counts)[0]

    data = np.empty((x.shape[0], weight.shape[2]), np.float32)
    for e in occupied:
        lo, hi = offsets[e], offsets[e + 1]
        np.matmul(x.data[lo:hi], weight.data[e], out=data[lo:hi])
    if bias is not None:
        np.add(data, np.repeat(bias.data, counts, axis=0), out=data)

    x_data, w_data = x.data, weight.data
    b_data = None if bias is None else bias.data

    def backward(g):
        grad_x = np.empty_like(x_data)
        grad_w = np.zeros_like(w_data)
        for e in occupied:
            lo, hi = offsets[e], offsets[e + 1]
            np.matmul(g[lo:hi], w_data[e].T, out=grad_x[lo:hi])
            np.matmul(x_data[lo:hi].T, g[lo:hi], out=grad_w[e])
        if b_data is None:
            return grad_x, grad_w
        grad_b = np.zeros_like(b_data)
        g = np.ascontiguousarray(g)
        for e in occupied:
            grad_b[e] = _row_sum(g[offsets[e]:offsets[e + 1]])
        return grad_x, grad_w, grad_b

    return Tensor._make(data, inputs, backward)


def legacy_expert_ffn(x, w1, b1, w2, b2, segment_counts):
    """``expert_ffn`` as three nodes: segment GEMM + bias, ReLU, again."""
    e = w1.shape[0]
    h = F.relu(
        legacy_segment_matmul(x, w1, segment_counts, bias=b1.reshape(e, -1))
    )
    return legacy_segment_matmul(h, w2, segment_counts, bias=b2.reshape(e, -1))
