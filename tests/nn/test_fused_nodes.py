"""The MoE expert step's fused nodes against the chains they replaced.

``expert_ffn`` is two unbucketed segment GEMM loops around a ReLU node
with the biases folded in (``legacy_expert_ffn``), and
``weighted_scatter_add`` is a product node followed by ``np.add.at``
(``legacy_weighted_scatter_add``).  Each keeps every float op, so
outputs and gradients are pinned bit for bit to the chains; what they
no longer allocate is pinned with tracemalloc.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

import repro.moe.layer as layer_module
from repro.moe import MoELayer
from repro.moe.experts import Experts
from repro.nn import Tensor, expert_ffn, inference_mode, weighted_scatter_add
from repro.nn.fused import _BUCKET_ROW_ELEMS
from repro.nn.tensor import _CHUNK

from ..moe.legacy_expert_step import legacy_weighted_scatter_add
from .legacy_segment_matmul import legacy_expert_ffn


def _bits(array):
    return array.view(np.int32)


def _same(got, ref):
    """Bit for bit where ``ref`` is not NaN, NaN where it is (a NaN's
    payload is the BLAS kernel's business)."""
    nan = np.isnan(ref)
    return np.array_equal(np.isnan(got), nan) and np.array_equal(
        _bits(np.where(nan, 0, got)), _bits(np.where(nan, 0, ref))
    )


def _ffn_case(rng, model_dim, hidden, counts):
    e, n = len(counts), int(np.sum(counts))
    x = rng.standard_normal((n, model_dim)).astype(np.float32)
    x[::7] = 0.0  # rows whose pre-activations are exactly b1 = 0
    return (
        x,
        (rng.standard_normal((e, model_dim, hidden)) * 0.3).astype(np.float32),
        np.zeros((e, 1, hidden), np.float32),
        (rng.standard_normal((e, hidden, model_dim)) * 0.3).astype(np.float32),
        (rng.standard_normal((e, 1, model_dim)) * 0.1).astype(np.float32),
        rng.standard_normal((n, model_dim)).astype(np.float32),
    )


# Lengths 600 / 300 / 100 (two experts each), a singleton and two
# empty experts.  With M=8, H=16 a 300-row class stacks its fc1 GEMMs
# but not its fc2 GEMMs; with M=16, H=8 the reverse; 100 rows stack
# both and 600 rows neither.
FFN_COUNTS = [600, 300, 100, 0, 600, 50, 300, 100, 0]


@pytest.mark.parametrize("model_dim,hidden", [(8, 16), (16, 8)])
@pytest.mark.parametrize("rows_need_grad", [True, False])
@pytest.mark.parametrize("inf_grad", [False, True])
def test_expert_ffn_is_the_chain_bit_for_bit(
    rng, model_dim, hidden, rows_need_grad, inf_grad
):
    """With an inf in the output gradient, ``inf * 0`` at the ReLU's
    dead units must stay NaN, as the chain's masking multiply makes it."""
    counts = np.asarray(FFN_COUNTS)
    assert 300 * 8 <= _BUCKET_ROW_ELEMS < 300 * 16
    x, w1, b1, w2, b2, seed = _ffn_case(rng, model_dim, hidden, counts)
    if inf_grad:
        seed[::97, 0] = np.inf
    results = []
    for fn in (expert_ffn, legacy_expert_ffn):
        leaves = [Tensor(x.copy(), requires_grad=rows_need_grad)] + [
            Tensor(a.copy(), requires_grad=True) for a in (w1, b1, w2, b2)
        ]
        out = fn(*leaves, counts)
        with np.errstate(invalid="ignore"):
            out.backward(seed.copy())
        results.append([out.data] + [t.grad for t in leaves])
    for got, ref in zip(*results):
        if ref is None:
            assert got is None
        else:
            assert got.shape == ref.shape
            assert _same(got, ref)
    assert np.isnan(results[1][1 + 1]).any() == inf_grad
    assert not results[0][1 + 1][counts == 0].any()  # empty experts' w1


def test_expert_backward_holds_one_segment_not_one_hidden(rng):
    """Backward through ``run_grouped`` where every segment takes the
    plain GEMM path: what it allocates beyond the gradients it returns
    stays below one (N, H) float32 array.  The three-node chain built
    an (N, H) hidden gradient, its mask and their product."""
    experts, model_dim, hidden, per_expert = 8, 64, 128, 128
    assert per_expert * model_dim > _BUCKET_ROW_ELEMS
    bank = Experts(experts, model_dim, hidden, np.random.default_rng(0))
    n = experts * per_expert
    rows = Tensor(
        rng.standard_normal((n, model_dim)).astype(np.float32),
        requires_grad=True,
    )
    out = bank.run_grouped(rows, np.full(experts, per_expert))
    seed = rng.standard_normal(out.shape).astype(np.float32)
    tracemalloc.start()
    try:
        out.backward(seed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    returned = rows.grad.nbytes + sum(p.grad.nbytes for p in bank.parameters())
    assert peak - returned < n * hidden * 4


def test_expert_forward_makes_no_pre_relu_hidden(rng):
    """The forward allocates the post-ReLU hidden and the output, never
    a second (N, H) array beside the hidden (the chain's ReLU held its
    input and its output at once)."""
    experts, model_dim, hidden, per_expert = 8, 64, 128, 128
    bank = Experts(experts, model_dim, hidden, np.random.default_rng(0))
    n = experts * per_expert
    rows = Tensor(
        rng.standard_normal((n, model_dim)).astype(np.float32),
        requires_grad=True,
    )
    tracemalloc.start()
    try:
        out = bank.run_grouped(rows, np.full(experts, per_expert))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.data.nbytes < n * hidden * 4
    assert peak < 2 * n * hidden * 4


@pytest.mark.parametrize("depth", [1, 2, 9])
def test_weighted_scatter_add_is_the_chain_bit_for_bit(rng, depth):
    """Forward and both gradients equal the product node followed by
    ``np.add.at``, over several staging slices, on the unique-index
    path, the occurrence rounds and the ``np.add.at`` fallback."""
    tokens, width = 3000, 48
    idx = np.concatenate([rng.permutation(tokens) for _ in range(depth)])
    n = idx.size
    assert n * width > 2 * _CHUNK  # three or more staging slices
    values = rng.standard_normal((n, width)).astype(np.float32)
    weights = rng.random((n, 1)).astype(np.float32)
    weights[::5] = -0.0
    seed = rng.standard_normal((tokens, width)).astype(np.float32)

    results = []
    for fn in (weighted_scatter_add, legacy_weighted_scatter_add):
        v = Tensor(values.copy(), requires_grad=True)
        w = Tensor(weights.copy(), requires_grad=True)
        out = fn(v, w, idx, tokens)
        out.backward(seed.copy())
        results.append((out.data, v.grad, w.grad))
    for got, ref in zip(*results):
        assert got.shape == ref.shape
        assert np.array_equal(_bits(got), _bits(ref))


def test_weighted_combine_builds_no_weighted_rows(rng):
    """The forward holds the output, the round staging and one slice of
    weighted rows: less than an (N, J) weighted array on top."""
    tokens, width = 2048, 64
    idx = np.concatenate([rng.permutation(tokens) for _ in range(2)])
    values = Tensor(
        rng.standard_normal((idx.size, width)).astype(np.float32),
        requires_grad=True,
    )
    weights = Tensor(rng.random((idx.size, 1)).astype(np.float32))
    tracemalloc.start()
    try:
        out = weighted_scatter_add(values, weights, idx, tokens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    staging = 2 * out.data.nbytes  # k = 2 planes of (T, J)
    assert peak < out.data.nbytes + staging + values.data.nbytes // 2


def test_inference_frees_the_dispatched_rows_before_the_combine(rng, monkeypatch):
    """Past the expert node only its tape reads the dispatched rows, so
    under inference they are gone before the combine runs."""
    layer = MoELayer(16, 24, 4, np.random.default_rng(0), top_k=2)
    dispatch, combine = layer_module.dispatch_grouped, layer_module.combine_grouped
    rows = []

    def dispatch_spy(*args):
        out = dispatch(*args)
        rows.append(weakref.ref(out.data))
        return out

    def combine_spy(*args):
        assert rows and rows[-1]() is None
        return combine(*args)

    monkeypatch.setattr(layer_module, "dispatch_grouped", dispatch_spy)
    monkeypatch.setattr(layer_module, "combine_grouped", combine_spy)
    x = Tensor(rng.standard_normal((32, 16)).astype(np.float32))
    with inference_mode():
        layer(x)
    assert len(rows) == 1


def test_fused_nodes_check_their_own_operands():
    """Beyond the segment checks (``test_segment_matmul.py``): the rest
    of ``expert_ffn``'s bank, and the combine's weights and indices."""
    x, counts = np.zeros((4, 3), np.float32), np.array([1, 3])
    bank = {
        "w1": np.zeros((2, 3, 5)), "b1": np.zeros((2, 1, 5)),
        "w2": np.zeros((2, 5, 3)), "b2": np.zeros((2, 1, 3)),
    }
    expert_ffn(x, *bank.values(), counts)
    for name, bad in (
        ("b1", (2, 5)), ("w2", (2, 5, 4)), ("w2", (3, 5, 3)), ("b2", (2, 1, 5)),
    ):
        args = dict(bank, **{name: np.zeros(bad)})
        with pytest.raises(ValueError, match=name):
            expert_ffn(x, *args.values(), counts)
    idx = np.array([0, 1, 1, 2])
    with pytest.raises(ValueError, match="weights"):
        weighted_scatter_add(x, np.zeros(4, np.float32), idx, 3)
    with pytest.raises(IndexError):
        weighted_scatter_add(x, np.zeros((4, 1), np.float32), idx, 2)
