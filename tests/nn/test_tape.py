"""What the autograd tape holds, and when it lets go.

A node keeps its backward closure and its inputs' entries; a closure
keeps only the arrays its formula reads.  So an intermediate no
backward reads dies while the forward is still running, what a
backward does read lives until the walk has run that backward, and a
causal attention node keeps its probabilities' lower block triangle,
never the (B, H, T, T) square.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

from repro.models.blocks import TransformerBlock
from repro.models.gpt2_tiny import TransformerLM
from repro.nn import Tensor
from repro.nn import functional as F
from repro.nn.functional import _ATTN_BLOCK

from .test_attention import (
    HEADS,
    MULTI_BLOCK_T,
    _block_shapes,
    _lm,
    _lm_tokens,
    _tape_nodes,
)

NO_TAPE = "no autograd tape"


def _closures(loss: Tensor, op: str) -> list:
    """``{name: value}`` of every captured variable, one dict per node
    of ``op`` (the function that recorded it) still on ``loss``'s tape."""
    found = []
    for node in _tape_nodes(loss):
        fn = node.backward
        if fn.__qualname__ == f"{op}.<locals>.backward":
            cells = (cell.cell_contents for cell in fn.__closure__)
            found.append(dict(zip(fn.__code__.co_freevars, cells)))
    return found


# -- a backward that could reach no parameter -------------------------------


def test_backward_without_a_tape_raises(rng):
    """A loss built from constants only, or detached, has no node and
    needs no grad: backward() raises instead of learning nothing."""
    a = rng.standard_normal((3, 4)).astype(np.float32)
    t = Tensor(a, requires_grad=True)
    for loss in (
        (Tensor(a) * 2.0).sum(),
        (t * 2.0).sum().detach(),
        Tensor(np.float32(1.0)),
    ):
        with pytest.raises(RuntimeError, match=NO_TAPE):
            loss.backward()
    assert t.grad is None
    t.backward(np.ones_like(a))  # a leaf that requires grad is its own tape
    np.testing.assert_array_equal(t.grad, np.ones_like(a))


# -- what the forward frees, what the walk frees -----------------------------


def test_the_forward_frees_what_no_backward_reads(monkeypatch):
    """Before backward(): every Linear's pre-bias product (the gate
    logits and the bias-free head's logits among them), every block's
    residual output and the logits are dead already, because no closure
    captured them.  The expert FFN is one node, which keeps its (N, M)
    rows and its post-ReLU hidden and no other per-row array: the
    pre-ReLU hidden is never made."""
    dead = {"product": [], "residual": [], "logits": []}
    matmul, block = Tensor.__matmul__, TransformerBlock.forward
    forward = TransformerLM.forward

    def spy(kind, fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            dead[kind].append(weakref.ref(out.data))
            return out

        return wrapped

    monkeypatch.setattr(Tensor, "__matmul__", spy("product", matmul))
    monkeypatch.setattr(TransformerBlock, "forward", spy("residual", block))
    monkeypatch.setattr(TransformerLM, "forward", spy("logits", forward))
    model = _lm(max_seq_len=MULTI_BLOCK_T)
    loss = model.loss(_lm_tokens(seq_len=MULTI_BLOCK_T))
    blocks = len(model.blocks)
    # q, k, v and out projections plus the gate per block, and the head.
    assert len(dead["product"]) == 5 * blocks + 1
    assert len(dead["residual"]) == blocks
    assert len(dead["logits"]) == 1
    for kind, refs in dead.items():
        assert all(ref() is None for ref in refs), kind
    experts = _closures(loss, "expert_ffn")
    assert len(experts) == blocks
    for saved in experts:
        rows = saved["xd"].shape[0]
        per_row = [
            name for name, value in saved.items()
            if isinstance(value, np.ndarray) and value.shape[0] == rows
        ]
        assert sorted(per_row) == ["h", "xd"]
        assert not (saved["h"] < 0).any()  # post-ReLU
    del experts, saved
    loss.backward()
    assert all(p.grad is not None for p in model.parameters())


def test_the_tape_keeps_what_the_backward_reads_until_the_walk():
    """q, k, v, the per-block probabilities and layer_norm's saves stay
    alive after the forward, and die once the walk has run their
    backward, with the loss itself still held."""
    model = _lm(max_seq_len=MULTI_BLOCK_T)
    tokens = _lm_tokens(seq_len=MULTI_BLOCK_T)
    loss = model.loss(tokens)
    attn = _closures(loss, "scaled_dot_product_attention")
    norms = _closures(loss, "layer_norm")
    assert len(attn) == len(model.blocks)
    assert len(norms) == 2 * len(model.blocks) + 1  # and the final norm
    shape = (tokens.shape[0], HEADS, MULTI_BLOCK_T, MULTI_BLOCK_T)
    blocks = _block_shapes(shape)
    assert all([p.shape for p in c["saved"]] == blocks for c in attn)
    qkv, stats = ("q_data", "k_data", "v_data"), ("xhat", "inv", "var")
    refs = [weakref.ref(c[name]) for c in attn for name in qkv]
    refs += [weakref.ref(p) for c in attn for p in c["saved"]]
    refs += [weakref.ref(c[name]) for c in norms for name in stats]
    del attn, norms
    assert all(ref() is not None for ref in refs)
    loss.backward()
    assert all(ref() is None for ref in refs)


# -- causal attention keeps the lower block triangle -------------------------


def _qkv(rng, batch, heads, t, d):
    return [
        Tensor(rng.standard_normal((batch, heads, t, d)).astype(np.float32),
               requires_grad=True)
        for _ in range(3)
    ]


def test_causal_tape_keeps_only_the_lower_block_triangle(rng):
    """A causal training forward allocates no (B, H, T, T) array, not
    even transiently, and saves Σ (b − a)·b probabilities per (batch,
    head): 56% of the square at T = 8 blocks + 5 rows."""
    batch, heads, t, d = 2, 2, 8 * _ATTN_BLOCK + 5, 4
    square = (batch, heads, t, t)
    q, k, v = _qkv(rng, batch, heads, t, d)
    tracemalloc.start()
    try:
        out = F.scaled_dot_product_attention(q, k, v, 0.5, causal=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < np.prod(square) * 4
    (closure,) = _closures(out, "scaled_dot_product_attention")
    saved = closure["saved"]
    assert [p.shape for p in saved] == _block_shapes(square)
    triangle = sum(
        (min(a + _ATTN_BLOCK, t) - a) * min(a + _ATTN_BLOCK, t)
        for a in range(0, t, _ATTN_BLOCK)
    )
    assert sum(p.size for p in saved) == batch * heads * triangle
    assert triangle < 0.57 * t * t
    arrays = [v for v in closure.values() if isinstance(v, np.ndarray)]
    assert all(a.shape != square for a in arrays + saved)


# -- relu saves its output ----------------------------------------------------


def test_relu_gradient_from_its_output_is_the_input_mask(rng):
    """``out > 0`` is ``x > 0`` bit for bit on ±0.0, NaN, ±inf and
    subnormals, and the node keeps no reference to its input."""
    tiny = np.finfo(np.float32).smallest_subnormal
    special = np.array(
        [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny,
         np.finfo(np.float32).tiny * np.float32(0.5), 1.0, -1.0],
        np.float32,
    )
    x = np.concatenate([special, rng.standard_normal(40).astype(np.float32)])
    g = rng.standard_normal(x.shape).astype(np.float32)
    leaf = Tensor(x, requires_grad=True)
    F.relu(leaf).backward(g)
    expected = g * (x > 0)
    assert np.array_equal(leaf.grad.view(np.int32), expected.view(np.int32))

    pre = Tensor(x, requires_grad=True) * 1.0  # an intermediate input
    out = F.relu(pre)
    dropped = weakref.ref(pre.data)
    del pre
    assert dropped() is None
    (closure,) = _closures(out, "relu")
    assert list(closure) == ["out"] and closure["out"] is out.data
