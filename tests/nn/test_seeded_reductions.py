"""Seeded row statistics against the expressions they replace, bit for bit.

Every row max on a hot path is ``np.maximum.reduce(..., initial=seed)``
instead of an unseeded ``.max``, and ``F.layer_norm`` computes its mean
and variance once instead of calling ``x.mean`` and ``x.var``.  Each
test here runs the old expression beside the new code on rows built to
break it: signed zeros, ``-1e9`` masks, ``-inf``, NaN, ties, widths
1-300, and for the codecs zeros and subnormals.  Only same-shape numpy
ops are compared, so every claim holds on any BLAS kernel.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.compression import get_compressor
from repro.compression.zfp import BLOCK
from repro.nn import LayerNorm, MultiHeadAttention, Tensor
from repro.nn import functional as F


def bits(a):
    return np.ascontiguousarray(a, np.float32).view(np.int32)


def assert_same_bits(new, old):
    assert new.shape == old.shape
    assert np.array_equal(bits(new), bits(old))


#: What a row max meets: signed zeros, the -1e9 mask, -inf, NaN, and a
#: few small integers so ties are common.
special = st.sampled_from([0.0, -0.0, -1e9, -np.inf, np.nan, 1.0, -1.0, 2.0])
row_values = st.one_of(special, st.floats(-1e4, 1e4, width=32))


@st.composite
def rows(draw, max_rows=4):
    """(r, w) float32 rows, w in [1, 300]; some rows are one repeated value."""
    w = draw(st.integers(1, 300))
    r = draw(st.integers(1, max_rows))
    x = draw(arrays(np.float32, (r, w), elements=row_values))
    for i in draw(st.lists(st.integers(0, r - 1), max_size=r)):
        x[i] = draw(special)
    return x


#: Rows chosen by hand: all -inf, all NaN, zeros of both signs in both
#: orders, a masked row with one live score, ties at the max.
EDGE_ROWS = [
    [-np.inf, -np.inf, -np.inf],
    [np.nan, np.nan],
    [0.0, -0.0],
    [-0.0, 0.0],
    [-0.0, -0.0, -0.0],
    [-1e9, -1e9, 0.5, -1e9],
    [-1e9],
    [3.0, 1.0, 3.0, 3.0],
    [-np.inf, np.nan, 1.0],
]


def legacy_softmax(x, axis=-1):
    """The unseeded softmax forward."""
    s = x - x.max(axis=axis, keepdims=True)
    np.exp(s, out=s)
    np.divide(s, s.sum(axis=axis, keepdims=True), out=s)
    return s


def check_row_max(x, axis=-1):
    """A seeded max equals the unseeded one but for the sign of a zero,
    and ``exp(x − max)`` is the same bits either way."""
    seeded = np.maximum.reduce(x, axis=axis, keepdims=True, initial=-np.inf)
    plain = x.max(axis=axis, keepdims=True)
    same = bits(seeded) == bits(plain)
    assert np.all(same | ((seeded == 0) & (plain == 0)))
    assert_same_bits(np.exp(x - seeded), np.exp(x - plain))


@pytest.mark.parametrize("row", EDGE_ROWS, ids=str)
def test_edge_rows_max_and_softmax(row):
    x = np.array([row], np.float32)
    with np.errstate(invalid="ignore", divide="ignore"):
        check_row_max(x)
        assert_same_bits(F.softmax(Tensor(x)).data, legacy_softmax(x))


@settings(max_examples=150, deadline=None)
@given(x=rows())
def test_seeded_row_max_matches_unseeded(x):
    with np.errstate(invalid="ignore", over="ignore"):
        check_row_max(x)
        check_row_max(x.T.copy(), axis=0)
        # A causal score block's layout: (batch, heads, rows, keys).
        check_row_max(np.broadcast_to(x, (2, 3) + x.shape).copy())


@settings(max_examples=100, deadline=None)
@given(x=rows(), axis=st.sampled_from([-1, 0]), seed=st.integers(0, 2**16))
def test_softmax_matches_unseeded(x, axis, seed):
    g = np.random.default_rng(seed).standard_normal(x.shape).astype(np.float32)
    with np.errstate(invalid="ignore", divide="ignore"):
        want = legacy_softmax(x, axis)
        t = Tensor(x, requires_grad=True)
        out = F.softmax(t, axis=axis)
        assert_same_bits(out.data, want)
        out.backward(g)
        dot = (g * want).sum(axis=axis, keepdims=True)
        assert_same_bits(t.grad, want * (g - dot))


def composed_attention(q, k, v, scale, bias):
    """Unseeded ``softmax(q kᵀ · scale + bias) v`` in plain numpy."""
    scores = np.matmul(q, np.swapaxes(k, -1, -2))
    scores *= np.float32(scale)
    scores += bias
    return np.matmul(legacy_softmax(scores), v)


@pytest.mark.parametrize("t", [1, 5, 32])
@pytest.mark.parametrize("causal", [False, True])
def test_one_block_attention_matches_unseeded_chain(rng, t, causal):
    """Where one block covers the scores the fused node runs the
    composed chain's ops; with its seeded max it keeps their bits."""
    q, k, v = (rng.standard_normal((2, 3, t, 16)).astype(np.float32) for _ in "qkv")
    q[0, 0, 0] = 0.0  # a row of -0.0 / +0.0 scores
    pad = np.where(rng.random((2, 1, 1, t)) < 0.3, -1e9, 0.0).astype(np.float32)
    pad[..., 0] = 0.0
    bias = pad
    if causal:
        bias = pad + np.triu(np.full((t, t), -1e9, np.float32), 1)
    got = F.scaled_dot_product_attention(
        Tensor(q), Tensor(k), Tensor(v), 0.25, [pad], causal=causal
    )
    assert_same_bits(got.data, composed_attention(q, k, v, 0.25, bias))


def legacy_layer_norm(x, w, b, g, eps=1e-5):
    """The layer norm forward and backward that called ``x.mean`` and
    ``x.var``; returns ``(out, gx, gw, gb)``."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = x - mu
    xhat *= inv
    out = xhat * w
    out += b
    d = x.shape[-1]
    gx_hat = g * w
    xc = xhat
    near_constant = var < 1e3 * eps
    if near_constant.any():
        xc = np.where(near_constant, xhat - xhat.mean(axis=-1, keepdims=True), xhat)
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
    return out, gx, (g * xhat).sum(axis=axes), g.sum(axis=axes)


@st.composite
def norm_inputs(draw):
    """(..., d) rows at d in {1, 48, 50, 64, 100}, some offset far from
    zero and some (near-)constant, so the re-centring path runs too."""
    d = draw(st.sampled_from([1, 48, 50, 64, 100]))
    lead = draw(st.sampled_from([(1,), (5,), (2, 3)]))
    x = draw(arrays(np.float32, lead + (d,), elements=st.floats(-1e3, 1e3, width=32)))
    flat = x.reshape(-1, d)
    for i in draw(st.lists(st.integers(0, len(flat) - 1), max_size=3)):
        kind = draw(st.sampled_from(["offset", "constant", "zeros"]))
        if kind == "offset":
            flat[i] = flat[i] * np.float32(1e-3) + np.float32(draw(st.floats(-1e4, 1e4)))
        elif kind == "constant":
            flat[i] = np.float32(draw(st.floats(-1e3, 1e3)))
        else:
            flat[i] = 0.0
    return x


@settings(max_examples=150, deadline=None)
@given(x=norm_inputs(), seed=st.integers(0, 2**16))
def test_layer_norm_matches_mean_var(x, seed):
    rng = np.random.default_rng(seed)
    d = x.shape[-1]
    w, b = (rng.standard_normal(d).astype(np.float32) for _ in "wb")
    g = rng.standard_normal(x.shape).astype(np.float32)
    want = legacy_layer_norm(x, w, b, g)
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    out = F.layer_norm(xt, wt, bt)
    out.backward(g)
    for got, ref in zip((out.data, xt.grad, wt.grad, bt.grad), want):
        assert_same_bits(got, ref)


#: Signed zeros and subnormals, so whole rows and blocks of them occur.
tiny = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-(2.0**-126), 2.0**-126, width=32, allow_nan=False),
)
codec_values = st.one_of(tiny, st.floats(-1e6, 1e6, width=32))


@settings(max_examples=150, deadline=None)
@given(x=arrays(np.float32, st.integers(1, 5 * BLOCK), elements=codec_values))
def test_zfp_peaks_match_unseeded(x):
    """zfp's seeded peak over magnitude bits is the unseeded max, and the
    block exponents it stores are the ones those peaks give."""
    flat = np.concatenate([x, np.zeros((-x.size) % BLOCK, np.float32)])
    work = np.bitwise_and(flat.reshape(-1, BLOCK).view(np.int32), np.int32(0x7FFFFFFF))
    plain = work.max(axis=1)
    assert np.array_equal(np.maximum.reduce(work, axis=1, initial=0), plain)
    exps = np.maximum(np.frexp(plain.view(np.float32))[1], -128).astype(np.int8)
    got = get_compressor("zfp").compress(x)
    assert np.array_equal(got.payload["exponents"], exps)


def legacy_int8c(arr):
    """int8c's compress with the unseeded row peak."""
    rows = arr.reshape(-1, arr.shape[-1]) if arr.ndim > 1 else arr.reshape(1, -1)
    peaks = np.abs(rows).max(axis=1)
    scales = np.where(peaks > 0, peaks / 127.0, 1.0).astype(np.float32)
    quant = np.clip(np.rint(rows / scales[:, None]), -127, 127).astype(np.int8)
    return quant, scales


@settings(max_examples=150, deadline=None)
@given(
    x=arrays(
        np.float32,
        st.tuples(st.integers(1, 4), st.integers(1, 300)),
        elements=codec_values,
    ),
    zero_rows=st.lists(st.integers(0, 3), max_size=2),
)
def test_int8c_payload_matches_unseeded(x, zero_rows):
    for i in zero_rows:
        if i < len(x):
            x[i] = np.where(np.arange(x.shape[1]) % 2, 0.0, -0.0)
    for arr in (x, x[0]):
        quant, scales = legacy_int8c(arr)
        got = get_compressor("int8c").compress(arr)
        assert np.array_equal(got.payload["data"], quant)
        assert_same_bits(got.payload["scales"], scales)


# -- what the seed must not hide ----------------------------------------

def _attention(t_k=4, scale=0.5):
    q = Tensor(np.ones((1, 2, 3, 8), np.float32))
    kv = Tensor(np.ones((1, 2, t_k, 8), np.float32))
    return F.scaled_dot_product_attention(q, kv, kv, scale)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: F.softmax(Tensor(np.ones((3, 0), np.float32))), "empty axis"),
        (lambda: F.softmax(Tensor(np.ones((0, 3), np.float32)), axis=0), "empty axis"),
        (lambda: _attention(t_k=0), "t_k == 0"),
        (lambda: _attention(scale=float("nan")), "scale must be finite"),
        (lambda: _attention(scale=float("inf")), "scale must be finite"),
        (lambda: _attention(scale=-np.inf), "scale must be finite"),
        (lambda: _attention(scale=1e40), "scale must be finite"),
    ],
    ids=[
        "softmax-last-axis",
        "softmax-axis-0",
        "attention-no-keys",
        "scale-nan",
        "scale-inf",
        "scale-minus-inf",
        "scale-past-float32",
    ],
)
def test_empty_axis_and_bad_scale_raise(call, match):
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=match):
        call()


def test_softmax_over_empty_rows_of_a_full_axis_is_empty():
    """Zero rows is not an empty axis: the result is empty, not an error."""
    assert F.softmax(Tensor(np.ones((0, 3), np.float32))).shape == (0, 3)


@pytest.mark.parametrize("eps", [0.0, -1.0, float("nan"), float("inf"), -np.inf])
def test_layer_norm_rejects_bad_eps(eps):
    x = Tensor(np.ones((2, 8), np.float32))
    with pytest.raises(ValueError, match="eps must be finite and > 0"):
        LayerNorm(8, eps=eps)
    norm = LayerNorm(8)
    with pytest.raises(ValueError, match="eps must be finite and > 0"):
        F.layer_norm(x, norm.weight, norm.bias, eps)


@pytest.mark.parametrize(
    "heads, error",
    [(0, ValueError), (-2, ValueError), (2.0, TypeError), (True, TypeError)],
)
def test_attention_checks_num_heads_at_construction(rng, heads, error):
    with pytest.raises(error, match="num_heads"):
        MultiHeadAttention(8, heads, rng)
    assert MultiHeadAttention(8, np.int64(2), rng).num_heads == 2
