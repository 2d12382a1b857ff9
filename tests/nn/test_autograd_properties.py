"""Property-based autograd checks (hypothesis)."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn import Tensor, functional as F

elements = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, width=32)


def mats(rows, cols):
    return arrays(np.float32, (rows, cols), elements=elements)


@settings(max_examples=30, deadline=None)
@given(x=mats(3, 4), y=mats(3, 4))
def test_addition_gradient_is_ones(x, y):
    a = Tensor(x, requires_grad=True)
    b = Tensor(y, requires_grad=True)
    (a + b).sum().backward()
    np.testing.assert_allclose(a.grad, np.ones_like(x))
    np.testing.assert_allclose(b.grad, np.ones_like(y))


@settings(max_examples=30, deadline=None)
@given(x=mats(3, 4), y=mats(3, 4))
def test_product_rule(x, y):
    a = Tensor(x, requires_grad=True)
    b = Tensor(y, requires_grad=True)
    (a * b).sum().backward()
    np.testing.assert_allclose(a.grad, y, rtol=1e-5, atol=1e-6)
    np.testing.assert_allclose(b.grad, x, rtol=1e-5, atol=1e-6)


@settings(max_examples=30, deadline=None)
@given(x=mats(4, 5))
def test_linearity_of_backward(x):
    """grad of (2f) == 2 * grad of f."""
    w = Tensor(np.arange(20, dtype=np.float32).reshape(4, 5))
    a1 = Tensor(x, requires_grad=True)
    (F.softmax(a1) * w).sum().backward()
    a2 = Tensor(x, requires_grad=True)
    (F.softmax(a2) * w * 2.0).sum().backward()
    np.testing.assert_allclose(a2.grad, 2.0 * a1.grad, rtol=1e-4, atol=1e-6)


@settings(max_examples=30, deadline=None)
@given(x=mats(4, 5))
def test_softmax_gradient_rows_sum_to_zero(x):
    """softmax preserves the simplex: row gradient sums vanish for any
    upstream gradient."""
    a = Tensor(x, requires_grad=True)
    w = np.arange(20, dtype=np.float32).reshape(4, 5)
    (F.softmax(a) * Tensor(w)).sum().backward()
    np.testing.assert_allclose(a.grad.sum(axis=-1), 0.0, atol=1e-4)


@settings(max_examples=30, deadline=None)
@given(x=mats(4, 6))
@example(  # a near-constant row: var ~ eps, so inv is ~230
    x=np.array(
        [[2.5546875, 2.5625, 2.5625, 2.5625, 2.5625, 2.5625]]
        + [[2.5625] * 6] * 3,
        dtype=np.float32,
    )
)
def test_layer_norm_gradient_orthogonal_to_ones(x):
    """d(layernorm)/dx is orthogonal to constant shifts of x."""
    w = Tensor(np.ones(6, dtype=np.float32))
    b = Tensor(np.zeros(6, dtype=np.float32))
    a = Tensor(x, requires_grad=True)
    coeffs = np.linspace(-1, 1, 24, dtype=np.float32).reshape(4, 6)
    (F.layer_norm(a, w, b) * Tensor(coeffs)).sum().backward()
    np.testing.assert_allclose(a.grad.sum(axis=-1), 0.0, atol=1e-3)


@settings(max_examples=30, deadline=None)
@given(x=mats(5, 3))
def test_matmul_identity_preserves_gradient(x):
    a = Tensor(x, requires_grad=True)
    eye = Tensor(np.eye(3, dtype=np.float32))
    (a @ eye).sum().backward()
    np.testing.assert_allclose(a.grad, np.ones_like(x), atol=1e-6)


@settings(max_examples=20, deadline=None)
@given(x=mats(4, 7))
def test_cross_entropy_gradient_sums_to_zero_per_row(x):
    """Softmax CE gradient rows sum to 0 (prob simplex constraint)."""
    targets = np.arange(4) % 7
    a = Tensor(x, requires_grad=True)
    F.cross_entropy(a, targets).backward()
    np.testing.assert_allclose(a.grad.sum(axis=-1), 0.0, atol=1e-6)
