"""The fused attention node against the composed op chain it replaced.

``F.scaled_dot_product_attention`` must be a pure restructuring: same
outputs, same gradients, bit for bit, for every shape the models use,
and whole-model training must not move by a single ulp.  The composed
reference lives in ``legacy_attention.py``.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from repro.models.gpt2_tiny import TransformerLM
from repro.models.transformer import Seq2SeqTransformer
from repro.nn import MultiHeadAttention, Tensor
from repro.nn import functional as F
from repro.nn.modules import _causal_bias
from repro.nn.optim import Adam

from .legacy_attention import composed_attention, legacy_forward

DIM, HEADS = 16, 4


@dataclass(frozen=True)
class Case:
    batch: int = 2
    t_q: int = 5
    t_k: Optional[int] = None  # set: cross-attention over a t_k context
    causal: bool = False
    mask: bool = False


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
}


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
    return MultiHeadAttention(DIM, HEADS, np.random.default_rng(0), causal=case.causal)


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
    assert np.array_equal(out, ref_out)
    assert grads.keys() == ref_grads.keys()
    for key in grads:
        assert np.array_equal(grads[key], ref_grads[key]), key


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
    d = DIM // HEADS
    q = rng.standard_normal((case.batch, HEADS, case.t_q, d)).astype(np.float32)
    k = rng.standard_normal((case.batch, HEADS, t_k, d)).astype(np.float32)
    v = rng.standard_normal((case.batch, HEADS, t_k, d + 1)).astype(np.float32)
    biases = []
    if case.mask:
        keep = rng.random((case.batch, t_k)) < 0.7
        keep[:, 0] = True
        biases.append(np.where(keep[:, None, None, :], 0.0, -1e9).astype(np.float32))
    if case.causal:
        biases.append(_causal_bias(case.t_q, t_k))
    weight = rng.standard_normal((case.batch, HEADS, case.t_q, d + 1)).astype(np.float32)
    return (q, k, v), 1.0 / np.sqrt(d), biases, weight


def _primitive_grads(attention, arrays, scale, biases, weight):
    q, k, v = (Tensor(a, requires_grad=True) for a in arrays)
    out = attention(q, k, v, scale, biases)
    (out * Tensor(weight)).sum().backward()
    return out.data, (q.grad, k.grad, v.grad)


@pytest.mark.parametrize("name", sorted(CASES))
def test_primitive_q_k_v_gradients_match_the_composed_chain(name):
    arrays, scale, biases, weight = _qkv(CASES[name])
    out, grads = _primitive_grads(
        F.scaled_dot_product_attention, arrays, scale, biases, weight
    )
    ref_out, ref_grads = _primitive_grads(
        composed_attention, arrays, scale, biases, weight
    )
    assert np.array_equal(out, ref_out)
    for grad, ref in zip(grads, ref_grads):
        assert np.array_equal(grad, ref)


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
    case = Case(batch=1, t_q=3, t_k=4, causal=True, mask=True)
    arrays, scale, biases, weight = _qkv(case, seed=11)
    _, grads = _primitive_grads(
        F.scaled_dot_product_attention, arrays, scale, biases, weight
    )

    def value(*perturbed):
        out = F.scaled_dot_product_attention(
            *(Tensor(a) for a in perturbed), scale, biases
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


def test_causal_bias_is_built_once_and_read_only():
    bias = _causal_bias(4, 4)
    assert _causal_bias(4, 4) is bias
    assert not bias.flags.writeable
    expected = np.where(np.tril(np.ones((4, 4), dtype=bool)), 0.0, -1e9)
    assert np.array_equal(bias, expected.astype(np.float32))


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
    lm = _lm(max_seq_len=32).eval()
    tokens = _lm_tokens(seq_len=32)[:, :-1]
    tape = lm.forward(tokens).data
    assert np.array_equal(lm.forward_inference(tokens).data, tape)
    s2s = _seq2seq().eval()
    src, tgt_in, _ = _seq2seq_batch()
    tape = s2s.forward(src, tgt_in).data
    assert np.array_equal(s2s.forward_inference(src, tgt_in).data, tape)


def _attention_arrays(loss: Tensor, shape) -> int:
    """Distinct ``shape`` arrays the tape from ``loss`` keeps alive: node
    results plus arrays (and tensors) captured by backward closures."""
    found, seen, stack = set(), set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        values = [node.data]
        for cell in getattr(node._backward, "__closure__", None) or ():
            try:
                value = cell.cell_contents
            except ValueError:
                continue
            values.extend(value if isinstance(value, (list, tuple)) else [value])
        for value in values:
            if isinstance(value, Tensor):
                stack.append(value)
            elif isinstance(value, np.ndarray) and value.shape == shape:
                found.add(id(value))
        stack.extend(node._parents)
    return len(found)


def test_tape_keeps_one_score_array_per_attention_layer(monkeypatch):
    batch, seq_len = 2, 8
    shape = (batch, HEADS, seq_len, seq_len)
    assert DIM // HEADS != seq_len  # no other tape array has this shape
    model = _lm(max_seq_len=seq_len)
    loss = model.loss(_lm_tokens(batch, seq_len))
    assert _attention_arrays(loss, shape) == len(model.blocks)
    # The composed chain kept four: q·kᵀ, scaled, biased, softmax.
    monkeypatch.setattr(MultiHeadAttention, "forward", legacy_forward)
    loss = model.loss(_lm_tokens(batch, seq_len))
    assert _attention_arrays(loss, shape) == 4 * len(model.blocks)
