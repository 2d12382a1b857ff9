"""The segmented GEMMs of the expert step, ``expert_ffn``.

``expert_ffn(x, w1, b1, w2, b2, counts)`` runs each expert's
contiguous row segment through ``relu(x @ w1[e] + b1[e]) @ w2[e] +
b2[e]``.  It must be the exact per-segment composition of plain 2-d
matmuls: forward bit-identical to slicing, backward the exact adjoint
of each slice (empty segments receive exactly zero weight and bias
gradients).  Its size buckets and its in-loop bias adds are pinned bit
for bit, forward and backward, to the unbucketed loop with a
repeated-row bias in ``legacy_segment_matmul``.
"""

import numpy as np
import pytest

import repro.nn.fused as fused_module
from repro.nn import Tensor, expert_ffn
from repro.nn import functional as F

from ..moe.legacy_dense import stack
from .legacy_segment_matmul import legacy_expert_ffn


def bank(rng, experts, model_dim, hidden):
    """``(w1, b1, w2, b2)`` in ``Experts``' stacked layout."""
    return (
        rng.standard_normal((experts, model_dim, hidden)).astype(np.float32),
        (rng.standard_normal((experts, 1, hidden)) * 0.5).astype(np.float32),
        rng.standard_normal((experts, hidden, model_dim)).astype(np.float32),
        rng.standard_normal((experts, 1, model_dim)).astype(np.float32),
    )


def reference(x, w1, b1, w2, b2, counts):
    parts, lo = [], 0
    for e, c in enumerate(counts):
        h = np.maximum(x[lo : lo + c] @ w1[e] + b1[e], np.float32(0.0))
        parts.append(h @ w2[e] + b2[e])
        lo += c
    return np.concatenate(parts, axis=0)


def run(fn, x, params, counts, seed):
    """Output and every gradient of ``fn`` after one backward."""
    leaves = [Tensor(x.copy(), requires_grad=True)] + [
        Tensor(p.copy(), requires_grad=True) for p in params
    ]
    out = fn(*leaves, counts)
    out.backward(seed.copy())
    return [np.array(out.data)] + [t.grad for t in leaves]


def assert_bits_equal(got, ref):
    for a, b in zip(got, ref):
        assert a.shape == b.shape
        assert np.array_equal(a.view(np.int32), b.view(np.int32))


@pytest.mark.parametrize(
    "counts",
    [[3, 2, 4], [0, 5, 0], [9, 0, 0], [0, 0, 0], [1, 1, 1]],
)
def test_forward_matches_sliced_matmuls(rng, counts):
    counts = np.asarray(counts)
    x = rng.standard_normal((int(counts.sum()), 6)).astype(np.float32)
    params = bank(rng, 3, 6, 5)
    out = expert_ffn(Tensor(x), *(Tensor(p) for p in params), counts)
    np.testing.assert_array_equal(out.data, reference(x, *params, counts))


def test_backward_is_per_segment_adjoint(rng):
    counts = np.array([2, 0, 3, 1])
    x = rng.standard_normal((6, 4)).astype(np.float32)
    w1, b1, w2, b2 = params = bank(rng, 4, 4, 3)
    seed = rng.standard_normal((6, 4)).astype(np.float32)
    _, gx, gw1, gb1, gw2, gb2 = run(expert_ffn, x, params, counts, seed)

    expected = [np.zeros_like(a) for a in (x, w1, b1, w2, b2)]
    ex, ew1, eb1, ew2, eb2 = expected
    lo = 0
    for e, c in enumerate(counts):
        rows, g = x[lo : lo + c], seed[lo : lo + c]
        h = np.maximum(rows @ w1[e] + b1[e], 0.0)
        gh = (g @ w2[e].T) * (h > 0)
        ew2[e], eb2[e] = h.T @ g, g.sum(axis=0)
        ew1[e], eb1[e] = rows.T @ gh, gh.sum(axis=0)
        ex[lo : lo + c] = gh @ w1[e].T
        lo += c
    for got, want in zip((gx, gw1, gb1, gw2, gb2), expected):
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)
    # Expert 1 saw no rows: its weight and bias gradients are exactly zero.
    for grad in (gw1, gb1, gw2, gb2):
        np.testing.assert_array_equal(grad[1], 0.0)


def test_gradcheck_against_per_segment_matmul(rng):
    """Uniform segments: same values and grads as per-segment matmuls."""
    E, C, M, H = 3, 4, 5, 2
    x = rng.standard_normal((E * C, M)).astype(np.float32)
    params = bank(rng, E, M, H)

    xs = Tensor(x, requires_grad=True)
    ps = [Tensor(p, requires_grad=True) for p in params]
    seg = expert_ffn(xs, *ps, np.full(E, C))
    (seg**2).sum().backward()

    xr = Tensor(x.copy(), requires_grad=True)
    w1, b1, w2, b2 = rs = [Tensor(p.copy(), requires_grad=True) for p in params]
    per_segment = stack(
        [
            F.relu(xr[e * C : (e + 1) * C] @ w1[e] + b1[e]) @ w2[e] + b2[e]
            for e in range(E)
        ]
    ).reshape(E * C, M)
    (per_segment**2).sum().backward()

    np.testing.assert_array_equal(seg.data, per_segment.data)
    for got, want in zip([xs] + ps, [xr] + rs):
        np.testing.assert_allclose(got.grad, want.grad, rtol=1e-5, atol=1e-6)


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
    """Size-bucketed stacked GEMMs with each bias added inside the loop
    are bit-identical to the plain loop with a repeated-row bias,
    forward and backward — same per-row 2-d products and the same one
    float add per element, just batched."""
    counts = np.asarray(counts)
    n = int(counts.sum())
    x = rng.standard_normal((n, 6)).astype(np.float32)
    params = bank(rng, len(counts), 6, 5)
    seed = rng.standard_normal((n, 6)).astype(np.float32)
    assert_bits_equal(
        run(expert_ffn, x, params, counts, seed),
        run(legacy_expert_ffn, x, params, counts, seed),
    )


def test_empty_experts_get_zero_weight_grad_from_any_memory(rng, monkeypatch):
    """The weight gradients start uninitialised and only the empty
    experts' slices are zeroed.  With ``np.empty_like`` handing out
    NaN-filled memory (fresh pages would be zero and pass by luck), the
    empty experts still read exactly +0.0 and every gradient equals the
    unbucketed loop bit for bit."""
    counts = np.asarray([4, 0, 4, 1, 0, 3])  # a bucket, singles, empties
    n = int(counts.sum())
    x = rng.standard_normal((n, 6)).astype(np.float32)
    params = bank(rng, len(counts), 6, 5)
    seed = rng.standard_normal((n, 6)).astype(np.float32)
    ref = run(legacy_expert_ffn, x, params, counts, seed)
    empty_like, calls = np.empty_like, []

    def nan_empty_like(*args, **kwargs):
        out = empty_like(*args, **kwargs)
        out.fill(np.nan)
        calls.append(out.shape)
        return out

    monkeypatch.setattr(fused_module.np, "empty_like", nan_empty_like)
    got = run(expert_ffn, x, params, counts, seed)
    # The swap ran on both weight gradients.
    assert params[0].shape in calls and params[2].shape in calls
    for grad in got[2:]:
        assert not grad[counts == 0].view(np.int32).any()
    assert_bits_equal(got, ref)


# -- bucketing threshold -----------------------------------------------------


def test_bucket_threshold_sweep_keeps_values(rng, monkeypatch):
    """The threshold changes the bucketing decision, never the values."""
    # Counts with a bucketable pair whose LHS block is 5*6=30 elems.
    counts = np.asarray([5, 5, 2, 2])
    n = int(counts.sum())
    x = rng.standard_normal((n, 6)).astype(np.float32)
    params = bank(rng, len(counts), 6, 5)
    seed = rng.standard_normal((n, 6)).astype(np.float32)
    ref = run(legacy_expert_ffn, x, params, counts, seed)
    # 0 disables bucketing entirely; a huge value buckets every size
    # class.  Either way results are bit-identical to the plain loop.
    for threshold in (0, 12, 1_000_000):
        monkeypatch.setattr(fused_module, "_BUCKET_ROW_ELEMS", threshold)
        assert_bits_equal(run(expert_ffn, x, params, counts, seed), ref)


def test_empty_input(rng):
    params = [Tensor(p) for p in bank(rng, 2, 3, 4)]
    out = expert_ffn(
        Tensor(np.zeros((0, 3), np.float32)), *params, np.zeros(2, np.int64)
    )
    assert out.shape == (0, 3)


def test_no_grad_operands_skip_the_tape(rng):
    x = Tensor(rng.standard_normal((2, 3)).astype(np.float32))
    params = [Tensor(p) for p in bank(rng, 1, 3, 3)]
    out = expert_ffn(x, *params, np.array([2]))
    assert out._node is None


def test_validation_errors(rng):
    x = Tensor(rng.standard_normal((4, 3)).astype(np.float32))
    _, b1, w2, b2 = bank(rng, 2, 3, 5)
    w = Tensor(rng.standard_normal((2, 3, 5)).astype(np.float32))

    def op(x, w, counts):
        return expert_ffn(x, w, b1, w2, b2, counts)

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
