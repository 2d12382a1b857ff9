"""Tests for the index-based autograd primitives.

``gather`` (tensor.py), ``weighted_scatter_add`` (fused.py) and
``take_along_axis`` (functional.py) are the building blocks of the
sparse MoE dispatch and combine; their backwards are exact adjoints of
the forwards, which these tests verify both structurally (repeated
indices accumulate) and numerically (finite differences).
"""

import numpy as np
import pytest

from repro.nn import Tensor, gather, weighted_scatter_add
from repro.nn import functional as F


def finite_diff(fn, x_data, eps=1e-3):
    grad = np.zeros_like(x_data, dtype=np.float64)
    flat = x_data.reshape(-1)
    g = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x_data)
        flat[i] = orig - eps
        lo = fn(x_data)
        flat[i] = orig
        g[i] = (hi - lo) / (2 * eps)
    return grad


class TestGather:
    def test_forward(self, rng):
        x = Tensor(rng.standard_normal((5, 3)).astype(np.float32))
        idx = np.array([4, 0, 0, 2])
        out = gather(x, idx)
        np.testing.assert_array_equal(out.data, x.data[idx])

    def test_backward_accumulates_repeats(self, rng):
        x = Tensor(
            rng.standard_normal((4, 2)).astype(np.float32),
            requires_grad=True,
        )
        idx = np.array([1, 1, 3])
        gather(x, idx).sum().backward()
        expected = np.zeros((4, 2), dtype=np.float32)
        expected[1] = 2.0  # row 1 gathered twice
        expected[3] = 1.0
        np.testing.assert_array_equal(x.grad, expected)

    def test_backward_matches_finite_diff(self, rng):
        x_data = rng.standard_normal((4, 3)).astype(np.float64)
        idx = np.array([2, 0, 2, 1])
        w = rng.standard_normal((4, 3)).astype(np.float64)

        def loss(data):
            return float((data[idx] * w).sum())

        x = Tensor(x_data.astype(np.float32), requires_grad=True)
        (gather(x, idx) * Tensor(w.astype(np.float32))).sum().backward()
        np.testing.assert_allclose(
            x.grad, finite_diff(loss, x_data), rtol=1e-3, atol=1e-4
        )

    def test_rejects_float_indices(self, rng):
        x = Tensor(rng.standard_normal((4, 3)).astype(np.float32))
        with pytest.raises(TypeError):
            gather(x, np.array([0.0, 1.0]))


def scatter_add(values, indices, num_rows):
    """The weighted combine with unit weights: a plain scatter-add."""
    ones = Tensor(np.ones((values.shape[0], 1), np.float32))
    return weighted_scatter_add(values, ones, indices, num_rows)


class TestScatterAdd:
    def test_forward_accumulates(self, rng):
        v = Tensor(np.ones((3, 2), dtype=np.float32))
        out = scatter_add(v, np.array([1, 1, 0]), num_rows=4)
        expected = np.zeros((4, 2), dtype=np.float32)
        expected[0] = 1.0
        expected[1] = 2.0
        np.testing.assert_array_equal(out.data, expected)

    def test_backward_gathers(self, rng):
        v = Tensor(
            rng.standard_normal((3, 2)).astype(np.float32),
            requires_grad=True,
        )
        idx = np.array([2, 0, 2])
        out = scatter_add(v, idx, num_rows=3)
        w = rng.standard_normal((3, 2)).astype(np.float32)
        (out * Tensor(w)).sum().backward()
        np.testing.assert_allclose(v.grad, w[idx], rtol=1e-6)

    def test_adjoint_of_gather(self, rng):
        # <gather(x, i), y> == <x, scatter_add(y, i)> for all x, y.
        x = rng.standard_normal((5, 3)).astype(np.float32)
        y = rng.standard_normal((4, 3)).astype(np.float32)
        idx = np.array([0, 2, 2, 4])
        lhs = (gather(Tensor(x), idx).data * y).sum()
        rhs = (x * scatter_add(Tensor(y), idx, num_rows=5).data).sum()
        assert lhs == pytest.approx(rhs, rel=1e-5)

    def test_rejects_out_of_range(self, rng):
        v = Tensor(np.ones((2, 2), dtype=np.float32))
        with pytest.raises(IndexError):
            scatter_add(v, np.array([0, 5]), num_rows=3)


class TestTakeAlongAxis:
    def test_forward(self, rng):
        x = Tensor(rng.standard_normal((4, 6)).astype(np.float32))
        idx = rng.integers(0, 6, size=(4, 2))
        out = F.take_along_axis(x, idx, axis=-1)
        np.testing.assert_array_equal(
            out.data, np.take_along_axis(x.data, idx, axis=-1)
        )

    def test_backward_accumulates_repeats(self, rng):
        x = Tensor(
            rng.standard_normal((2, 3)).astype(np.float32),
            requires_grad=True,
        )
        idx = np.array([[1, 1], [0, 2]])
        F.take_along_axis(x, idx, axis=-1).sum().backward()
        expected = np.array([[0, 2, 0], [1, 0, 1]], dtype=np.float32)
        np.testing.assert_array_equal(x.grad, expected)

    def test_backward_matches_finite_diff(self, rng):
        x_data = rng.standard_normal((3, 5)).astype(np.float64)
        idx = rng.integers(0, 5, size=(3, 3))
        w = rng.standard_normal((3, 3)).astype(np.float64)

        def loss(data):
            return float(
                (np.take_along_axis(data, idx, axis=-1) * w).sum()
            )

        x = Tensor(x_data.astype(np.float32), requires_grad=True)
        (
            F.take_along_axis(x, idx, axis=-1)
            * Tensor(w.astype(np.float32))
        ).sum().backward()
        np.testing.assert_allclose(
            x.grad, finite_diff(loss, x_data), rtol=1e-3, atol=1e-4
        )

    def test_axis_zero(self, rng):
        x = Tensor(
            rng.standard_normal((4, 3)).astype(np.float32),
            requires_grad=True,
        )
        idx = np.array([[3, 0, 1]])
        out = F.take_along_axis(x, idx, axis=0)
        np.testing.assert_array_equal(
            out.data, np.take_along_axis(x.data, idx, axis=0)
        )
        out.sum().backward()
        assert x.grad.sum() == pytest.approx(3.0)
