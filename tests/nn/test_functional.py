"""Gradient and semantics tests of nn.functional."""

import numpy as np
import pytest

from repro.nn import Tensor, functional as F

from .test_tensor import check_grads


@pytest.fixture
def x(rng):
    return rng.standard_normal((4, 6)).astype(np.float32)


def test_relu(x):
    check_grads(lambda t: F.relu(t), x + 0.01)  # avoid kink at 0


def test_softmax_rows_sum_to_one(x):
    s = F.softmax(Tensor(x), axis=-1)
    np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, rtol=1e-5)


def test_softmax_gradient_matches_analytic(rng, x):
    w = rng.standard_normal(x.shape).astype(np.float32)
    t = Tensor(x, requires_grad=True)
    (F.softmax(t) * Tensor(w)).sum().backward()
    s = np.exp(x - x.max(-1, keepdims=True))
    s /= s.sum(-1, keepdims=True)
    analytic = s * (w - (w * s).sum(-1, keepdims=True))
    np.testing.assert_allclose(t.grad, analytic, atol=1e-6)


def test_softmax_numerically_stable():
    big = Tensor(np.array([[1e4, 1e4 + 1.0]], dtype=np.float32))
    s = F.softmax(big)
    assert np.all(np.isfinite(s.data))


def test_layer_norm_statistics(x):
    w = Tensor(np.ones(x.shape[-1]), requires_grad=True)
    b = Tensor(np.zeros(x.shape[-1]), requires_grad=True)
    out = F.layer_norm(Tensor(x), w, b)
    np.testing.assert_allclose(out.data.mean(-1), 0.0, atol=1e-5)
    np.testing.assert_allclose(out.data.std(-1), 1.0, atol=1e-2)


def test_layer_norm_gradients(rng):
    x = rng.standard_normal((3, 5)).astype(np.float32)
    w = rng.standard_normal(5).astype(np.float32)
    b = rng.standard_normal(5).astype(np.float32)
    check_grads(
        lambda t, u, v: F.layer_norm(t, u, v) * Tensor(x + 2.0), x, w, b
    )


def test_embedding_lookup_and_grad(rng):
    weight = rng.standard_normal((10, 4)).astype(np.float32)
    idx = np.array([[1, 2], [2, 9]])
    w = Tensor(weight, requires_grad=True)
    F.embedding(w, idx).sum().backward()
    expected = np.zeros_like(weight)
    np.add.at(expected, idx, 1.0)
    np.testing.assert_allclose(w.grad, expected)
    with pytest.raises(TypeError):
        F.embedding(w, idx.astype(np.float32))


def test_cross_entropy_matches_manual(rng):
    logits = rng.standard_normal((5, 7)).astype(np.float32)
    targets = rng.integers(0, 7, 5)
    loss = F.cross_entropy(Tensor(logits), targets)
    shifted = logits - logits.max(-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(-1, keepdims=True))
    manual = -logp[np.arange(5), targets].mean()
    assert float(loss.data) == pytest.approx(manual, rel=1e-5)


def test_cross_entropy_ignore_index(rng):
    logits = rng.standard_normal((4, 5)).astype(np.float32)
    targets = np.array([1, 0, 2, 0])
    masked = F.cross_entropy(Tensor(logits), targets, ignore_index=0)
    only = F.cross_entropy(
        Tensor(logits[[0, 2]]), targets[[0, 2]]
    )
    assert float(masked.data) == pytest.approx(float(only.data), rel=1e-5)


def test_cross_entropy_gradient(rng):
    logits = rng.standard_normal((5, 7)).astype(np.float32)
    targets = np.asarray(rng.integers(0, 7, 5))
    check_grads(lambda t: F.cross_entropy(t, targets), logits)


def test_cross_entropy_shape_mismatch(rng):
    with pytest.raises(ValueError):
        F.cross_entropy(Tensor(np.zeros((2, 3))), np.zeros((3,), dtype=int))


def test_top_k_indices_correct(rng):
    scores = rng.standard_normal((6, 8))
    top = F.top_k_indices(scores, 3)
    for row, chosen in zip(scores, top):
        assert set(chosen) == set(np.argsort(-row)[:3])
        # Descending order of score.
        assert list(row[chosen]) == sorted(row[chosen], reverse=True)


def test_top_k_validation(rng):
    scores = rng.standard_normal((2, 4))
    with pytest.raises(ValueError):
        F.top_k_indices(scores, 0)
    with pytest.raises(ValueError):
        F.top_k_indices(scores, 5)


# -- token ids outside the vocabulary ------------------------------------------


@pytest.mark.parametrize("bad", [-1, -5, 5, 9])
def test_embedding_rejects_out_of_range_ids(rng, bad):
    """numpy would wrap a negative id to a row from the end, and
    raise a bare IndexError past the end."""
    weight = Tensor(rng.standard_normal((5, 3)).astype(np.float32))
    with pytest.raises(ValueError, match=r"\[0, 5\)"):
        F.embedding(weight, np.array([[0, bad], [1, 2]]))


@pytest.mark.parametrize("bad", [-1, -4, 4, 7])
def test_cross_entropy_rejects_out_of_range_targets(rng, bad):
    logits = Tensor(rng.standard_normal((2, 3, 4)).astype(np.float32))
    with pytest.raises(ValueError, match=r"\[0, 4\)"):
        F.cross_entropy(logits, np.array([[0, 1, bad], [3, 2, 1]]))


@pytest.mark.parametrize("ignore", [-1, -100, 4])
def test_cross_entropy_accepts_any_ignore_index(rng, ignore):
    """A masked target is never looked up, whatever its value."""
    logits = rng.standard_normal((2, 4)).astype(np.float32)
    value = F.cross_entropy(
        Tensor(logits), np.array([1, ignore]), ignore_index=ignore
    ).data
    shifted = logits[0] - logits[0].max()
    np.testing.assert_allclose(
        value, np.log(np.exp(shifted).sum()) - shifted[1], rtol=1e-6
    )
