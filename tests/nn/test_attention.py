"""The fused attention node against the composed op chain it replaced.

``F.scaled_dot_product_attention`` must be a pure restructuring: same
outputs, same gradients, bit for bit, wherever the scores fit in one
query block, and whole-model training must not move by a single ulp.
Causal attention over more than ``_ATTN_BLOCK`` queries skips the
masked triangle; its matmuls then have other shapes than the composed
chain's, which some BLAS kernels round differently, so those cases
compare within ``MULTI_BLOCK_TOL``.  ``forward_inference`` issues the
same calls as the tape and stays bit-identical to it everywhere.  The
composed reference lives in ``legacy_attention.py``.
"""

import tracemalloc
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from repro.models.gpt2_tiny import TransformerLM
from repro.models.transformer import Seq2SeqTransformer
from repro.nn import MultiHeadAttention, Tensor
from repro.nn import functional as F
from repro.nn.functional import _ATTN_BLOCK, _CAUSAL_TILE, _row_sum
from repro.nn.optim import Adam
from repro.nn.tensor import _Node

from .legacy_attention import causal_bias, composed_attention, legacy_forward

DIM, HEADS = 16, 4
#: fp32 tolerance for multi-block causal cases against the composed chain.
#: The absolute term covers k_proj.bias, whose gradient is zero up to
#: rounding (softmax ignores a per-row constant).
MULTI_BLOCK_TOL = dict(rtol=1e-5, atol=1e-5)
#: Causal queries that span three blocks, the last one ragged.
MULTI_BLOCK_T = 2 * _ATTN_BLOCK + 5


@dataclass(frozen=True)
class Case:
    batch: int = 2
    t_q: int = 5
    t_k: Optional[int] = None  # set: cross-attention over a t_k context
    causal: bool = False
    mask: bool = False
    heads: int = HEADS

    @property
    def multi_block(self) -> bool:
        return self.causal and self.t_q > _ATTN_BLOCK


CASES = {
    "causal": Case(causal=True),
    "non_causal": Case(),
    "padding_mask": Case(mask=True),
    "causal_and_padding_mask": Case(causal=True, mask=True),
    "cross": Case(t_q=3, t_k=6),
    "cross_padding_mask": Case(t_q=3, t_k=6, mask=True),
    "batch_one": Case(batch=1, causal=True),
    "single_token": Case(t_q=1, causal=True),
    "arena_sized": Case(t_q=32, causal=True),  # scores >= 4096 elements
    "multi_block_causal": Case(t_q=MULTI_BLOCK_T, causal=True),
    "multi_block_causal_padding_mask": Case(t_q=MULTI_BLOCK_T, causal=True, mask=True),
    "multi_block_head_dim_16": Case(t_q=256, causal=True, heads=1),
}


def _assert_same(got, ref, case: Case, what: str = "") -> None:
    """Bit for bit in one block; within ``MULTI_BLOCK_TOL`` beyond."""
    if case.multi_block:
        np.testing.assert_allclose(got, ref, **MULTI_BLOCK_TOL, err_msg=what)
    else:
        assert np.array_equal(got, ref), what


def _inputs(case: Case, seed: int = 3):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((case.batch, case.t_q, DIM)).astype(np.float32)
    t_k = case.t_q if case.t_k is None else case.t_k
    context = None
    if case.t_k is not None:
        context = rng.standard_normal((case.batch, t_k, DIM)).astype(np.float32)
    mask = None
    if case.mask:
        mask = rng.random((case.batch, t_k)) < 0.7
        mask[:, 0] = True
    weight = rng.standard_normal((case.batch, case.t_q, DIM)).astype(np.float32)
    return x, context, mask, weight


def _attention(case: Case) -> MultiHeadAttention:
    return MultiHeadAttention(
        DIM, case.heads, np.random.default_rng(0), causal=case.causal
    )


def _run(forward, case: Case):
    """Output and every gradient of ``sum(w * attn(x))``."""
    attn = _attention(case)
    x, context, mask, weight = _inputs(case)
    x = Tensor(x, requires_grad=True)
    if context is not None:
        context = Tensor(context, requires_grad=True)
    out = forward(attn, x, context=context, mask=mask)
    (out * Tensor(weight)).sum().backward()
    grads = {name: p.grad for name, p in attn.named_parameters()}
    grads["x"] = x.grad
    if context is not None:
        grads["context"] = context.grad
    return out.data, grads


@pytest.mark.parametrize("name", sorted(CASES))
def test_module_output_and_gradients_match_the_composed_chain(name):
    case = CASES[name]
    out, grads = _run(MultiHeadAttention.forward, case)
    ref_out, ref_grads = _run(legacy_forward, case)
    _assert_same(out, ref_out, case)
    assert grads.keys() == ref_grads.keys()
    for key in grads:
        _assert_same(grads[key], ref_grads[key], case, key)


@pytest.mark.parametrize("name", sorted(CASES))
def test_forward_inference_matches_the_eval_tape(name):
    case = CASES[name]
    attn = _attention(case).eval()
    x, context, mask, _ = _inputs(case)
    ctx = None if context is None else Tensor(context)
    tape = attn(Tensor(x), context=ctx, mask=mask).data
    for _ in range(2):  # the second call replays pooled buffers
        fast = attn.forward_inference(Tensor(x), context=ctx, mask=mask).data
        assert np.array_equal(fast, tape)


def _qkv(case: Case, seed: int = 5):
    rng = np.random.default_rng(seed)
    t_k = case.t_q if case.t_k is None else case.t_k
    h, d = case.heads, DIM // case.heads
    q = rng.standard_normal((case.batch, h, case.t_q, d)).astype(np.float32)
    k = rng.standard_normal((case.batch, h, t_k, d)).astype(np.float32)
    v = rng.standard_normal((case.batch, h, t_k, d + 1)).astype(np.float32)
    biases = []
    if case.mask:
        keep = rng.random((case.batch, t_k)) < 0.7
        keep[:, 0] = True
        biases.append(np.where(keep[:, None, None, :], 0.0, -1e9).astype(np.float32))
    weight = rng.standard_normal((case.batch, h, case.t_q, d + 1)).astype(np.float32)
    return (q, k, v), 1.0 / np.sqrt(d), biases, weight


def _primitive_grads(attention, arrays, scale, biases, weight, causal=False):
    q, k, v = (Tensor(a, requires_grad=True) for a in arrays)
    out = attention(q, k, v, scale, biases, causal=causal)
    (out * Tensor(weight)).sum().backward()
    return out.data, (q.grad, k.grad, v.grad)


@pytest.mark.parametrize("name", sorted(CASES))
def test_primitive_q_k_v_gradients_match_the_composed_chain(name):
    case = CASES[name]
    arrays, scale, biases, weight = _qkv(case)
    out, grads = _primitive_grads(
        F.scaled_dot_product_attention, arrays, scale, biases, weight, case.causal
    )
    ref_out, ref_grads = _primitive_grads(
        composed_attention, arrays, scale, biases, weight, case.causal
    )
    _assert_same(out, ref_out, case)
    for grad, ref, what in zip(grads, ref_grads, "qkv"):
        _assert_same(grad, ref, case, what)


def test_causal_attention_needs_square_scores():
    q = Tensor(np.zeros((1, 1, 3, 4), np.float32))
    k = Tensor(np.zeros((1, 1, 4, 4), np.float32))
    with pytest.raises(ValueError, match="t_q == t_k"):
        F.scaled_dot_product_attention(q, k, k, 0.5, causal=True)


def test_dropping_the_all_zeros_bias_keeps_negative_zero_scores_exact():
    """The composed chain added a zeros bias to non-causal scores, which
    turns every -0.0 score into +0.0; the fused node skips that add.
    Scores of -0.0 are produced on purpose (a subnormal q·k halved by
    the scale) so the comparison exercises the signed zeros."""
    tiny = np.finfo(np.float32).smallest_subnormal
    q = np.zeros((1, 2, 3, 4), np.float32)
    q[..., 0] = tiny
    k = np.zeros((1, 2, 3, 4), np.float32)
    k[..., 0] = -1.0
    k[0, 0, 1, 0] = 2.0  # head 0 mixes -0.0 with a positive score
    v = np.random.default_rng(0).standard_normal((1, 2, 3, 4)).astype(np.float32)
    scale = 0.5
    scores = np.matmul(q, np.swapaxes(k, -1, -2)) * np.float32(scale)
    assert ((scores == 0) & np.signbit(scores)).any()
    weight = np.random.default_rng(1).standard_normal((1, 2, 3, 4)).astype(np.float32)
    zeros = np.zeros((3, 3), np.float32)
    out, grads = _primitive_grads(
        F.scaled_dot_product_attention, (q, k, v), scale, (), weight
    )
    ref_out, ref_grads = _primitive_grads(
        composed_attention, (q, k, v), scale, (zeros,), weight
    )
    assert np.array_equal(out, ref_out)
    for grad, ref in zip(grads, ref_grads):
        assert np.array_equal(grad, ref)


def test_primitive_gradient_matches_finite_differences():
    case = Case(batch=1, t_q=4, causal=True, mask=True)
    arrays, scale, biases, weight = _qkv(case, seed=11)
    _, grads = _primitive_grads(
        F.scaled_dot_product_attention, arrays, scale, biases, weight, causal=True
    )

    def value(*perturbed):
        out = F.scaled_dot_product_attention(
            *(Tensor(a) for a in perturbed), scale, biases, causal=True
        )
        return float((out.data.astype(np.float64) * weight).sum())

    eps = 1e-2
    for index, grad in enumerate(grads):
        numeric = np.zeros_like(arrays[index])
        for pos in np.ndindex(arrays[index].shape):
            shifted = [a.copy() for a in arrays]
            shifted[index][pos] += eps
            hi = value(*shifted)
            shifted[index][pos] -= 2 * eps
            lo = value(*shifted)
            numeric[pos] = (hi - lo) / (2 * eps)
        np.testing.assert_allclose(grad, numeric, rtol=2e-2, atol=2e-3)


def test_causal_mask_is_one_read_only_diagonal_tile():
    assert _ATTN_BLOCK % 8 == 0  # block edges are _row_sum split points
    assert _CAUSAL_TILE.shape == (_ATTN_BLOCK, _ATTN_BLOCK)
    assert not _CAUSAL_TILE.flags.writeable
    assert np.array_equal(_CAUSAL_TILE, causal_bias(_ATTN_BLOCK, _ATTN_BLOCK))


def test_row_sum_is_numpys_sum_of_the_zero_padded_row():
    """Every multiple-of-8 prefix, and the full row, of several widths.
    A plain sum of the prefix must differ somewhere, or this test no
    longer pins numpy's pairwise order."""
    plain_differs = 0
    for n in (8, 24, 128, 129, 200, 256, 300, 1000):
        x = np.random.default_rng(n).standard_normal((3, 5, n)).astype(np.float32)
        for w in sorted({*range(8, n, 8), n}):
            padded = x.copy()
            padded[..., w:] = 0
            expected = padded.sum(axis=-1, keepdims=True).view(np.int32)
            prefix = np.ascontiguousarray(x[..., :w])
            assert np.array_equal(_row_sum(prefix, n).view(np.int32), expected), (n, w)
            plain = prefix.sum(axis=-1, keepdims=True).view(np.int32)
            plain_differs += not np.array_equal(plain, expected)
    assert plain_differs


# -- whole models ------------------------------------------------------


def _lm(max_seq_len: int = 8) -> TransformerLM:
    return TransformerLM(
        30, model_dim=DIM, hidden_dim=DIM, num_layers=2, num_heads=HEADS,
        max_seq_len=max_seq_len, moe=True, num_experts=4, top_k=2,
        capacity_factor=1.0, seed=0,
    )


def _lm_tokens(batch: int = 2, seq_len: int = 8) -> np.ndarray:
    return np.random.default_rng(4).integers(0, 30, size=(batch, seq_len + 1))


def _seq2seq() -> Seq2SeqTransformer:
    return Seq2SeqTransformer(
        25, 27, model_dim=DIM, hidden_dim=DIM, num_layers=2, num_heads=HEADS,
        max_seq_len=8, moe=True, num_experts=4, top_k=2, seed=0,
    )


def _seq2seq_batch():
    rng = np.random.default_rng(6)
    src = rng.integers(1, 25, size=(2, 7))
    src[0, 5:] = 0  # padding: exercises the encoder and cross-attn masks
    tgt = rng.integers(1, 27, size=(2, 6))
    return src, tgt[:, :-1], tgt[:, 1:]


def _train(model, loss, steps: int = 2):
    """Loss and every parameter gradient of ``steps`` Adam steps."""
    opt = Adam(model.parameters(), lr=1e-2)
    trace = []
    for _ in range(steps):
        opt.zero_grad()
        value = loss(model)
        value.backward()
        trace.append(
            (value.data.copy(), {n: p.grad.copy() for n, p in model.named_parameters()})
        )
        opt.step()
    return trace


def _assert_same_training(trace, ref):
    for (loss, grads), (ref_loss, ref_grads) in zip(trace, ref):
        assert np.array_equal(loss, ref_loss)
        assert grads.keys() == ref_grads.keys()
        for name in grads:
            assert np.array_equal(grads[name], ref_grads[name]), name


MODELS = {
    "lm": (_lm, lambda m: m.loss(_lm_tokens())),
    "seq2seq": (_seq2seq, lambda m: m.loss(*_seq2seq_batch())),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_whole_model_training_is_bit_identical_to_the_composed_chain(
    name, monkeypatch
):
    build, loss = MODELS[name]
    fused = _train(build(), loss)
    monkeypatch.setattr(MultiHeadAttention, "forward", legacy_forward)
    _assert_same_training(fused, _train(build(), loss))


def test_whole_model_forward_inference_matches_the_eval_tape():
    lm = _lm(max_seq_len=MULTI_BLOCK_T).eval()
    tokens = _lm_tokens(seq_len=MULTI_BLOCK_T)[:, :-1]
    tape = lm.forward(tokens).data
    assert np.array_equal(lm.forward_inference(tokens).data, tape)
    s2s = _seq2seq().eval()
    src, tgt_in, _ = _seq2seq_batch()
    tape = s2s.forward(src, tgt_in).data
    assert np.array_equal(s2s.forward_inference(src, tgt_in).data, tape)


def _block_shapes(shape) -> list:
    """Shapes of the per-block probabilities a causal ``shape`` =
    (..., T, T) tape keeps: block [a, b) saves (..., b - a, b)."""
    *lead, t, _ = shape
    ends = [min(a + _ATTN_BLOCK, t) for a in range(0, t, _ATTN_BLOCK)]
    return [(*lead, b - a, b) for a, b in zip(range(0, t, _ATTN_BLOCK), ends)]


def _tape_nodes(loss: Tensor) -> list:
    """Every node the tape from ``loss`` still reaches."""
    nodes, seen, stack = [], set(), [loss._node]
    while stack:
        node = stack.pop()
        if not isinstance(node, _Node) or id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node.inputs)
    return nodes


def _attention_arrays(loss: Tensor, shape) -> list:
    """What the tape from ``loss`` keeps of each attention layer's
    ``shape`` = (..., T, T) probabilities, one list per layer: the
    per-block lower triangle a fused causal node saves, or one array of
    ``shape`` (a single block, or the composed chain's softmax).  Only
    backward closures hold arrays; a node keeps no tensor."""
    found = {}
    for node in _tape_nodes(loss):
        for cell in node.backward.__closure__ or ():
            value = cell.cell_contents
            if isinstance(value, np.ndarray) and value.shape == shape:
                found[id(value)] = [value]
            elif (
                isinstance(value, list)
                and value
                and all(isinstance(a, np.ndarray) for a in value)
                and [a.shape for a in value] in (_block_shapes(shape), [shape])
            ):
                found[id(value)] = list(value)
    return list(found.values())


def test_forward_inference_keeps_no_score_square():
    """A steady tape-free forward never holds one (B, H, T, T) score
    array: its whole traced peak stays below that array's size."""
    batch, seq_len = 2, 8 * _ATTN_BLOCK + 5
    lm = _lm(max_seq_len=seq_len)
    tokens = _lm_tokens(batch, seq_len)[:, :-1]
    lm.forward_inference(tokens)  # cold call
    tracemalloc.start()
    try:
        lm.forward_inference(tokens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < batch * HEADS * seq_len * seq_len * 4


def test_tape_keeps_one_score_array_per_attention_layer(monkeypatch):
    """One set of probabilities per attention layer: one square where a
    single block covers the scores, the lower block triangle beyond.
    The composed chain's nodes kept four squares (q·kᵀ, scaled, biased,
    softmax) while the tape held tensors; now their closures keep only
    the softmax output, which ``@ v`` shares."""
    batch, fused = 2, MultiHeadAttention.forward
    for seq_len in (8, MULTI_BLOCK_T):  # one block, then three
        shape = (batch, HEADS, seq_len, seq_len)
        assert DIM // HEADS != seq_len  # no other tape array has this shape
        model = _lm(max_seq_len=seq_len)
        monkeypatch.setattr(MultiHeadAttention, "forward", fused)
        loss = model.loss(_lm_tokens(batch, seq_len))
        kept = _attention_arrays(loss, shape)
        assert len(kept) == len(model.blocks)
        assert all([a.shape for a in s] == _block_shapes(shape) for s in kept)
        monkeypatch.setattr(MultiHeadAttention, "forward", legacy_forward)
        loss = model.loss(_lm_tokens(batch, seq_len))
        kept = _attention_arrays(loss, shape)
        assert len(kept) == len(model.blocks)
        assert all([a.shape for a in s] == [shape] for s in kept)
