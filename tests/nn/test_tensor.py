"""Unit tests of the autograd tensor."""

import weakref

import numpy as np
import pytest

from repro.nn import Tensor

from ..moe.legacy_dense import einsum, stack
from .test_attention import HEADS, MULTI_BLOCK_T, _attention_arrays, _lm, _lm_tokens


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


@pytest.mark.parametrize(
    "sa,sb",
    [
        ((4,), (2, 4, 3)),
        ((2, 3, 4), (4,)),
        ((4,), (4,)),
        ((4,), (4, 3)),
        ((3, 4), (4,)),
    ],
)
def test_matmul_rejects_1d_operands(rng, sa, sb):
    """A 1-d operand raises in the forward, before any tape is built:
    its backward used to double a vector's gradient against a batch,
    or fail inside numpy."""
    x = Tensor(rng.standard_normal(sa).astype(np.float32), requires_grad=True)
    y = Tensor(rng.standard_normal(sb).astype(np.float32), requires_grad=True)
    with pytest.raises(ValueError, match="at least 2-d"):
        x @ y


def test_sum_mean_axes(a):
    check_grads(lambda t: t.sum(axis=0), a)
    check_grads(lambda t: t.mean(axis=1, keepdims=True), a)
    check_grads(lambda t: t.mean(), a)


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
    check_grads(lambda t, u: stack([t, u], axis=0), x, y)


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
    assert out._node is None
    assert not out.requires_grad


def test_no_tape_without_requires_grad(a, b):
    out = Tensor(a) @ Tensor(b)
    assert out._node is None


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


# -- single-use tape ---------------------------------------------------------


def test_backward_frees_the_tape_it_walks():
    """After a training step's backward nothing pins its saved
    activations, not even the loss and gate output each MoE layer keeps
    until the next forward."""
    model = _lm(max_seq_len=MULTI_BLOCK_T)
    tokens = _lm_tokens(seq_len=MULTI_BLOCK_T)
    loss = model.loss(tokens)
    shape = (tokens.shape[0], HEADS, MULTI_BLOCK_T, MULTI_BLOCK_T)
    kept = _attention_arrays(loss, shape)
    assert len(kept) == len(model.blocks)  # one set of blocks per layer
    saved = [weakref.ref(p) for blocks in kept for p in blocks]
    del kept
    loss.backward()
    del loss
    assert all(ref() is None for ref in saved)
    for block in model.blocks:
        assert block.ffn.last_aux_loss is not None
        assert block.ffn.last_aux_loss._node.inputs == ()  # spent
        assert block.ffn.last_gate_output is not None


FREED = "tape was freed by an earlier backward"


def test_backward_through_a_freed_graph_raises(a):
    """A second backward, or one through a new graph built on a walked
    intermediate, raises before any gradient moves."""
    t = Tensor(a, requires_grad=True)
    mid = t * 2.0
    loss = (mid * mid).sum()
    loss.backward()
    first = t.grad.copy()
    with pytest.raises(RuntimeError, match=FREED):
        loss.backward()
    w = Tensor(a, requires_grad=True)
    with pytest.raises(RuntimeError, match=FREED):
        (w * mid).sum().backward()
    assert np.array_equal(t.grad, first)
    assert w.grad is None


# -- leaf-gradient adoption --------------------------------------------------


def _passthrough(leaf, backward):
    """A one-input node over ``leaf`` with a hand-written backward."""
    return Tensor._make(leaf.data.copy(), (leaf,), backward)


def test_unaliased_leaf_gradient_is_adopted(a):
    """A fresh gradient nothing else holds becomes ``.grad`` itself.  The
    test keeps only a weakref, so it adds no reference of its own."""
    t = Tensor(a, requires_grad=True)
    made = []

    def backward(g):
        fresh = g * 2.0
        made.append(weakref.ref(fresh))
        return (fresh,)

    _passthrough(t, backward).backward(np.ones_like(a))
    assert made[0]() is t.grad
    np.testing.assert_array_equal(t.grad, 2 * np.ones_like(a))


def test_add_does_not_alias_its_parents_gradients(a, rng):
    """``__add__`` routes one array to both equal-shaped parents; the
    walk's dict still holds it for the second, so the first copies."""
    x = Tensor(a.copy(), requires_grad=True)
    y = Tensor(a.copy(), requires_grad=True)
    scale = Tensor(rng.standard_normal(a.shape).astype(np.float32))
    ((x + y) * scale).sum().backward()
    assert x.grad is not y.grad
    np.testing.assert_array_equal(x.grad, scale.data)
    np.testing.assert_array_equal(y.grad, scale.data)
    x.grad[...] = 7.0
    np.testing.assert_array_equal(y.grad, scale.data)


def test_square_sums_both_contributions(a):
    t = Tensor(a, requires_grad=True)
    (t * t).sum().backward()
    np.testing.assert_array_equal(t.grad, a + a)


def test_backward_seed_is_never_adopted(a):
    """The caller's seed stays the caller's, on a leaf and through a
    node that hands it on unchanged."""
    for make in (lambda t: t, lambda t: _passthrough(t, lambda g: (g,))):
        t = Tensor(a, requires_grad=True)
        seed = np.ones_like(a)
        make(t).backward(seed)
        seed[...] = 5.0
        np.testing.assert_array_equal(t.grad, np.ones_like(a))


def test_adopted_gradient_accumulates_like_a_copy(a, rng):
    """Two backward() calls without zero_grad, each through a fresh
    node (a tape is single-use): the adopted array accumulates the same
    bits as the copied one."""
    seeds = [rng.standard_normal(a.shape).astype(np.float32) for _ in range(2)]

    def run(keep):
        t = Tensor(a, requires_grad=True)
        made, kept = [], []

        def backward(g):
            fresh = g * 3.0
            made.append(weakref.ref(fresh))
            if keep:
                kept.append(fresh)  # a second holder forces the copy
            return (fresh,)

        for seed in seeds:
            _passthrough(t, backward).backward(seed)
        assert (made[0]() is t.grad) is not keep
        return t.grad

    adopted, copied = run(keep=False), run(keep=True)
    assert np.array_equal(adopted.view(np.int32), copied.view(np.int32))
