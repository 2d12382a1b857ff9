"""Unit tests of the autograd tensor."""

import numpy as np
import pytest

from repro.nn import Tensor, concatenate, einsum, stack, where


def grad_of(build, *arrays):
    """Backward gradients of build(*tensors).sum()."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    if out.data.size != 1:
        out = out.sum()
    out.backward()
    return [t.grad for t in tensors]


def numerical_grad(build, arrays, index, eps=1e-3):
    """Central-difference gradient wrt arrays[index]."""
    arrays = [a.copy() for a in arrays]
    target = arrays[index]
    grad = np.zeros_like(target)
    it = np.nditer(target, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        orig = target[i]

        def value():
            ts = [Tensor(a) for a in arrays]
            out = build(*ts)
            return float(out.data.sum())

        target[i] = orig + eps
        hi = value()
        target[i] = orig - eps
        lo = value()
        target[i] = orig
        grad[i] = (hi - lo) / (2 * eps)
    return grad


def check_grads(build, *arrays, tol=2e-2):
    analytic = grad_of(build, *arrays)
    for i in range(len(arrays)):
        numeric = numerical_grad(build, list(arrays), i)
        np.testing.assert_allclose(analytic[i], numeric, atol=tol, rtol=tol)


@pytest.fixture
def a(rng):
    return rng.standard_normal((3, 4)).astype(np.float32)


@pytest.fixture
def b(rng):
    return rng.standard_normal((4, 5)).astype(np.float32)


def test_add_mul_broadcasting(rng):
    x = rng.standard_normal((3, 4)).astype(np.float32)
    y = rng.standard_normal((4,)).astype(np.float32)
    check_grads(lambda t, u: t * u + u, x, y)


def test_sub_div_pow(rng):
    x = rng.standard_normal((3, 4)).astype(np.float32) + 5
    y = rng.standard_normal((3, 4)).astype(np.float32) + 5
    check_grads(lambda t, u: (t - u) / u + t**2, x, y)


def test_matmul_2d(a, b):
    check_grads(lambda x, y: x @ y, a, b)


def test_matmul_batched(rng):
    x = rng.standard_normal((2, 3, 4)).astype(np.float32)
    y = rng.standard_normal((2, 4, 5)).astype(np.float32)
    check_grads(lambda t, u: t @ u, x, y)


def test_matmul_broadcast_batch(rng):
    x = rng.standard_normal((2, 3, 4)).astype(np.float32)
    y = rng.standard_normal((4, 5)).astype(np.float32)
    check_grads(lambda t, u: t @ u, x, y)


def test_sum_mean_axes(a):
    check_grads(lambda t: t.sum(axis=0), a)
    check_grads(lambda t: t.mean(axis=1, keepdims=True), a)
    check_grads(lambda t: t.mean(), a)


def test_max_gradient_splits_ties():
    x = Tensor(np.array([[1.0, 3.0, 3.0]]), requires_grad=True)
    x.max(axis=1).sum().backward()
    np.testing.assert_allclose(x.grad, [[0.0, 0.5, 0.5]])


def test_reshape_transpose_swapaxes(rng):
    x = rng.standard_normal((2, 3, 4)).astype(np.float32)
    check_grads(lambda t: t.reshape(6, 4), x)
    check_grads(lambda t: t.transpose(2, 0, 1), x)
    check_grads(lambda t: t.swapaxes(0, 2), x)


def test_getitem_gradient_accumulates(a):
    idx = np.array([0, 1, 1, 2])
    check_grads(lambda t: t[idx], a)


def test_concatenate_and_stack(rng):
    x = rng.standard_normal((2, 3)).astype(np.float32)
    y = rng.standard_normal((2, 3)).astype(np.float32)
    check_grads(lambda t, u: concatenate([t, u], axis=1), x, y)
    check_grads(lambda t, u: stack([t, u], axis=0), x, y)


def test_where(rng):
    x = rng.standard_normal((3, 4)).astype(np.float32)
    y = rng.standard_normal((3, 4)).astype(np.float32)
    cond = x > 0
    check_grads(lambda t, u: where(cond, t, u), x, y)


def test_einsum_dispatch_combine_shapes(rng):
    tokens = rng.standard_normal((6, 5)).astype(np.float32)
    mask = rng.random((6, 3, 2)).astype(np.float32)
    check_grads(lambda t: einsum("tm,tec->ecm", t, Tensor(mask)), tokens)
    out = rng.standard_normal((3, 2, 5)).astype(np.float32)
    check_grads(lambda t: einsum("ecm,tec->tm", t, Tensor(mask)), out)


def test_einsum_requires_explicit_output():
    with pytest.raises(ValueError):
        einsum("ij,jk", Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))))


def test_backward_requires_scalar_or_seed(a):
    t = Tensor(a, requires_grad=True)
    with pytest.raises(ValueError):
        (t * 2).backward()
    (t * 2).backward(np.ones_like(a))
    np.testing.assert_allclose(t.grad, 2 * np.ones_like(a))


def test_gradient_accumulates_across_backward(a):
    t = Tensor(a, requires_grad=True)
    (t.sum()).backward()
    (t.sum()).backward()
    np.testing.assert_allclose(t.grad, 2 * np.ones_like(a))
    t.zero_grad()
    assert t.grad is None


def test_detach_cuts_tape(a):
    t = Tensor(a, requires_grad=True)
    out = (t * 2).detach()
    assert out._parents == ()
    assert not out.requires_grad


def test_no_tape_without_requires_grad(a, b):
    out = Tensor(a) @ Tensor(b)
    assert out._parents == ()
    assert out._backward is None


def test_diamond_graph_gradient(a):
    # y = x*x + x*x reuses x twice on two paths.
    t = Tensor(a, requires_grad=True)
    u = t * t
    (u + u).sum().backward()
    np.testing.assert_allclose(t.grad, 4 * a, rtol=1e-5)


def test_deep_chain_does_not_recurse(rng):
    """Iterative topological sort survives 5000-op chains."""
    t = Tensor(np.ones(4), requires_grad=True)
    out = t
    for _ in range(5000):
        out = out + 1.0
    out.sum().backward()
    np.testing.assert_allclose(t.grad, np.ones(4))
