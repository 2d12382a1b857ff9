"""Tests of the module system and layers."""

import numpy as np
import pytest

from repro.nn import (
    Embedding,
    FeedForward,
    LayerNorm,
    Linear,
    Module,
    ModuleList,
    MultiHeadAttention,
    Sequential,
    Tensor,
)
from repro.nn import functional as F


def test_linear_shapes_and_params(rng):
    layer = Linear(4, 6, rng)
    out = layer(Tensor(rng.standard_normal((3, 4)).astype(np.float32)))
    assert out.shape == (3, 6)
    names = dict(layer.named_parameters())
    assert set(names) == {"weight", "bias"}
    nobias = Linear(4, 6, rng, bias=False)
    assert len(nobias.parameters()) == 1


def test_module_tree_discovery(rng):
    model = Sequential(Linear(4, 8, rng), LayerNorm(8), Linear(8, 2, rng))
    names = [n for n, _ in model.named_parameters()]
    assert "layers.0.weight" in names
    assert "layers.1.bias" in names
    assert "layers.2.weight" in names
    assert model.num_parameters() == (4 * 8 + 8) + (8 + 8) + (8 * 2 + 2)


def test_train_eval_propagates(rng):
    model = Sequential(Linear(4, 4, rng), Linear(4, 4, rng))
    model.eval()
    assert all(not m.training for m in model.modules())
    model.train()
    assert all(m.training for m in model.modules())


def test_state_dict_roundtrip(rng):
    model = Sequential(Linear(4, 8, rng), Linear(8, 2, rng))
    state = model.state_dict()
    model2 = Sequential(
        Linear(4, 8, np.random.default_rng(999)),
        Linear(8, 2, np.random.default_rng(998)),
    )
    model2.load_state_dict(state)
    x = Tensor(rng.standard_normal((2, 4)).astype(np.float32))
    np.testing.assert_allclose(model(x).data, model2(x).data)


def test_state_dict_strictness(rng):
    model = Linear(4, 8, rng)
    with pytest.raises(KeyError):
        model.load_state_dict({"weight": model.weight.data})
    with pytest.raises(ValueError):
        model.load_state_dict(
            {"weight": np.zeros((2, 2)), "bias": model.bias.data}
        )


def test_zero_grad(rng):
    model = Linear(3, 3, rng)
    model(Tensor(np.ones((1, 3), np.float32))).sum().backward()
    assert model.weight.grad is not None
    model.zero_grad()
    assert model.weight.grad is None


def test_feedforward(rng):
    ff = FeedForward(8, 16, rng)
    x = Tensor(rng.standard_normal((5, 8)).astype(np.float32))
    out = ff(x)
    assert out.shape == (5, 8)
    np.testing.assert_array_equal(out.data, ff.fc2(F.relu(ff.fc1(x))).data)


def test_embedding(rng):
    emb = Embedding(12, 6, rng)
    out = emb(np.array([[0, 3], [11, 5]]))
    assert out.shape == (2, 2, 6)


def test_attention_self_shapes(rng):
    attn = MultiHeadAttention(16, 4, rng)
    x = Tensor(rng.standard_normal((2, 7, 16)).astype(np.float32))
    assert attn(x).shape == (2, 7, 16)
    with pytest.raises(ValueError):
        MultiHeadAttention(10, 3, rng)


def test_attention_causal_masking(rng):
    """Changing a future token must not change earlier outputs."""
    attn = MultiHeadAttention(8, 2, rng, causal=True)
    x = rng.standard_normal((1, 5, 8)).astype(np.float32)
    base = attn(Tensor(x)).data.copy()
    x2 = x.copy()
    x2[0, 4] += 10.0  # perturb the last position
    perturbed = attn(Tensor(x2)).data
    np.testing.assert_allclose(perturbed[0, :4], base[0, :4], atol=1e-5)
    assert not np.allclose(perturbed[0, 4], base[0, 4])


def test_attention_padding_mask(rng):
    """Masked-out source positions cannot influence the output."""
    attn = MultiHeadAttention(8, 2, rng)
    x = rng.standard_normal((1, 4, 8)).astype(np.float32)
    mask = np.array([[True, True, False, True]])
    base = attn(Tensor(x), mask=mask).data.copy()
    x2 = x.copy()
    x2[0, 2] += 100.0  # perturb the masked position
    perturbed = attn(Tensor(x2), mask=mask).data
    # The masked position cannot influence other positions' outputs
    # (it is excluded as a key/value; its own query row still changes).
    keep = [0, 1, 3]
    np.testing.assert_allclose(perturbed[0, keep], base[0, keep], atol=1e-4)


def test_cross_attention(rng):
    attn = MultiHeadAttention(8, 2, rng)
    x = Tensor(rng.standard_normal((2, 3, 8)).astype(np.float32))
    ctx = Tensor(rng.standard_normal((2, 6, 8)).astype(np.float32))
    assert attn(x, context=ctx).shape == (2, 3, 8)


def test_module_list(rng):
    ml = ModuleList([Linear(2, 2, rng)])
    ml.append(Linear(2, 2, rng))
    assert len(ml) == 2
    assert isinstance(ml[1], Linear)
    assert len([n for n, _ in ModuleListHolder(ml).named_parameters()]) == 4
    with pytest.raises(RuntimeError):
        ml(Tensor(np.zeros((1, 2))))


class ModuleListHolder(Module):
    def __init__(self, ml):
        super().__init__()
        self.ml = ml
