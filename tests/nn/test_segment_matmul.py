"""The segment-matmul primitive behind the capacity-free expert path.

``segment_matmul(x, w, counts)`` must be the exact per-segment
composition of plain 2-d matmuls — forward bit-identical to slicing,
backward the exact adjoint of each slice (per-segment input grads, and
per-segment weight grads accumulated into the stacked bank with empty
segments receiving exactly zero).  Its size buckets and its
in-loop bias add are pinned bit for bit, forward and backward, to the
unbucketed loop with a repeated-row bias in ``legacy_segment_matmul``.
"""

import numpy as np
import pytest

from repro.nn import Tensor, expert_ffn, segment_matmul

from ..moe.legacy_dense import stack
from .legacy_segment_matmul import legacy_segment_matmul


def reference(x, w, counts):
    parts, lo = [], 0
    for e, c in enumerate(counts):
        parts.append(x[lo : lo + c] @ w[e])
        lo += c
    return (
        np.concatenate(parts, axis=0)
        if parts
        else np.zeros((0, w.shape[2]), np.float32)
    )


@pytest.mark.parametrize(
    "counts",
    [[3, 2, 4], [0, 5, 0], [9, 0, 0], [0, 0, 0], [1, 1, 1]],
)
def test_forward_matches_sliced_matmuls(rng, counts):
    counts = np.asarray(counts)
    x = rng.standard_normal((int(counts.sum()), 6)).astype(np.float32)
    w = rng.standard_normal((3, 6, 5)).astype(np.float32)
    out = segment_matmul(Tensor(x), Tensor(w), counts)
    np.testing.assert_array_equal(out.data, reference(x, w, counts))


def test_backward_is_per_segment_adjoint(rng):
    counts = np.array([2, 0, 3, 1])
    x = Tensor(
        rng.standard_normal((6, 4)).astype(np.float32), requires_grad=True
    )
    w = Tensor(
        rng.standard_normal((4, 4, 3)).astype(np.float32), requires_grad=True
    )
    out = segment_matmul(x, w, counts)
    seed = rng.standard_normal(out.shape).astype(np.float32)
    out.backward(seed)

    lo = 0
    expected_w = np.zeros(w.shape, np.float32)
    expected_x = np.zeros(x.shape, np.float32)
    for e, c in enumerate(counts):
        expected_x[lo : lo + c] = seed[lo : lo + c] @ w.data[e].T
        expected_w[e] = x.data[lo : lo + c].T @ seed[lo : lo + c]
        lo += c
    np.testing.assert_allclose(x.grad, expected_x, atol=1e-6)
    np.testing.assert_allclose(w.grad, expected_w, atol=1e-6)
    # Expert 1 saw no rows: its weight gradient is exactly zero.
    np.testing.assert_array_equal(w.grad[1], 0.0)


def test_gradcheck_against_per_segment_matmul(rng):
    """Uniform segments: same values and grads as per-segment matmuls."""
    E, C, K, J = 3, 4, 5, 2
    x = rng.standard_normal((E * C, K)).astype(np.float32)
    w = rng.standard_normal((E, K, J)).astype(np.float32)

    xs, ws = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    seg = segment_matmul(xs, ws, np.full(E, C))
    (seg**2).sum().backward()

    xr, wr = Tensor(x.copy(), requires_grad=True), Tensor(
        w.copy(), requires_grad=True
    )
    per_segment = stack(
        [xr[e * C : (e + 1) * C] @ wr[e] for e in range(E)]
    ).reshape(E * C, J)
    (per_segment**2).sum().backward()

    np.testing.assert_array_equal(seg.data, per_segment.data)
    np.testing.assert_allclose(xs.grad, xr.grad, atol=1e-6)
    np.testing.assert_allclose(ws.grad, wr.grad, atol=1e-6)


@pytest.mark.parametrize(
    "counts",
    [
        [3, 3, 3, 3],  # one 4-wide bucket
        [2, 5, 2, 5, 2],  # two buckets, interleaved members
        [4, 0, 4, 1, 0],  # zero segments and a singleton
        [7],  # single segment, no bucketing possible
    ],
)
def test_bucketed_matches_unbucketed(rng, counts):
    """Size-bucketed stacked GEMMs with the bias added inside the loop
    are bit-identical to the plain loop with a repeated-row bias,
    forward and backward — same per-row 2-d products and the same one
    float add per element, just batched."""
    counts = np.asarray(counts)
    n, e = int(counts.sum()), len(counts)
    x = rng.standard_normal((n, 6)).astype(np.float32)
    w = rng.standard_normal((e, 6, 5)).astype(np.float32)
    b = rng.standard_normal((e, 5)).astype(np.float32)
    seed = rng.standard_normal((n, 5)).astype(np.float32)

    for with_bias in (False, True):
        grads = []
        for fn in (segment_matmul, legacy_segment_matmul):
            xs = Tensor(x.copy(), requires_grad=True)
            ws = Tensor(w.copy(), requires_grad=True)
            bs = Tensor(b.copy(), requires_grad=True) if with_bias else None
            out = fn(xs, ws, counts, bias=bs)
            out.backward(seed.copy())
            got = [np.array(out.data), xs.grad, ws.grad]
            grads.append(got + [bs.grad] if with_bias else got)
        for a, ref in zip(*grads):
            assert np.array_equal(a.view(np.int32), ref.view(np.int32))


def test_empty_experts_get_zero_weight_grad_from_any_memory(rng, monkeypatch):
    """The weight gradient starts uninitialised and only the empty
    experts' slices are zeroed.  With ``np.empty_like`` handing out
    NaN-filled memory (fresh pages would be zero and pass by luck), the
    empty experts still read exactly +0.0 and every slice equals the
    unbucketed loop bit for bit."""
    import repro.nn.tensor as tensor_module

    counts = np.asarray([4, 0, 4, 1, 0, 3])  # a bucket, singles, empties
    n, e = int(counts.sum()), len(counts)
    x = rng.standard_normal((n, 6)).astype(np.float32)
    w = rng.standard_normal((e, 6, 5)).astype(np.float32)
    seed = rng.standard_normal((n, 5)).astype(np.float32)

    def grads(fn):
        xs = Tensor(x.copy(), requires_grad=True)
        ws = Tensor(w.copy(), requires_grad=True)
        fn(xs, ws, counts).backward(seed.copy())
        return xs.grad, ws.grad

    ref_x, ref_w = grads(legacy_segment_matmul)
    empty_like, calls = np.empty_like, []

    def nan_empty_like(*args, **kwargs):
        out = empty_like(*args, **kwargs)
        out.fill(np.nan)
        calls.append(out.shape)
        return out

    monkeypatch.setattr(tensor_module.np, "empty_like", nan_empty_like)
    grad_x, grad_w = grads(segment_matmul)
    assert w.shape in calls  # the swap ran on the weight gradient
    assert not grad_w[counts == 0].view(np.int32).any()
    assert np.array_equal(grad_w.view(np.int32), ref_w.view(np.int32))
    assert np.array_equal(grad_x.view(np.int32), ref_x.view(np.int32))


# -- bucketing threshold -----------------------------------------------------


def test_bucket_threshold_sweep_keeps_values(rng, monkeypatch):
    """The threshold changes the bucketing decision, never the values."""
    import repro.nn.tensor as tensor_module

    # Counts with a bucketable pair whose LHS block is 5*6=30 elems.
    counts = np.asarray([5, 5, 2, 2])
    x = rng.standard_normal((int(counts.sum()), 6)).astype(np.float32)
    w = rng.standard_normal((len(counts), 6, 5)).astype(np.float32)
    b = rng.standard_normal((len(counts), 5)).astype(np.float32)
    ref = legacy_segment_matmul(x, w, counts, bias=b).data
    # 0 disables bucketing entirely; a huge value buckets every size
    # class.  Either way results are bit-identical to the plain loop.
    for threshold in (0, 12, 1_000_000):
        monkeypatch.setattr(tensor_module, "_BUCKET_ROW_ELEMS", threshold)
        out = segment_matmul(Tensor(x), Tensor(w), counts, bias=b).data
        assert np.array_equal(out.view(np.int32), ref.view(np.int32))


def test_empty_input(rng):
    w = Tensor(rng.standard_normal((2, 3, 4)).astype(np.float32))
    out = segment_matmul(
        Tensor(np.zeros((0, 3), np.float32)), w, np.zeros(2, np.int64)
    )
    assert out.shape == (0, 4)


def test_no_grad_operands_skip_the_tape(rng):
    x = Tensor(rng.standard_normal((2, 3)).astype(np.float32))
    w = Tensor(rng.standard_normal((1, 3, 3)).astype(np.float32))
    out = segment_matmul(x, w, np.array([2]))
    assert out._node is None


def _expert_ffn_fc1(x, w, counts):
    """``expert_ffn`` with ``w`` as its fc1 bank and zero fc2 and biases."""
    e, k, j = w.shape
    b1, w2, b2 = (np.zeros(s, np.float32) for s in ((e, 1, j), (e, j, k), (e, 1, k)))
    return expert_ffn(x, w, b1, w2, b2, counts)


@pytest.mark.parametrize(
    "op", [segment_matmul, _expert_ffn_fc1], ids=["segment_matmul", "expert_ffn"]
)
def test_validation_errors(rng, op):
    x = Tensor(rng.standard_normal((4, 3)).astype(np.float32))
    w = Tensor(rng.standard_normal((2, 3, 5)).astype(np.float32))
    with pytest.raises(ValueError):
        op(x, w, np.array([1, 2]))  # sum != rows
    with pytest.raises(ValueError):
        op(x, w, np.array([4]))  # wrong number of segments
    with pytest.raises(ValueError):
        op(x, w, np.array([5, -1]))  # negative count
    with pytest.raises(TypeError):
        op(x, w, np.array([2.0, 2.0]))  # non-integer counts
    with pytest.raises(ValueError):
        op(
            Tensor(np.zeros((4, 2), np.float32)), w, np.array([2, 2])
        )  # inner dim mismatch
    with pytest.raises(ValueError):
        op(
            Tensor(np.zeros((2, 2, 3), np.float32)), w, np.array([1, 1])
        )  # x must be 2-d
