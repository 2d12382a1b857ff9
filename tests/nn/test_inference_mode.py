"""The autograd-free inference fast path of the tensor substrate.

Two contracts under test.  First, ``inference_mode()`` semantics: no
tape is recorded anywhere inside the block, tensors born there refuse
``backward()`` with a clear error, and the mode nests and restores
like the other process-wide defaults.  Second, the arena plumbing:
``scratch_empty``/``scratch_zeros``/the ``out=`` targets draw from the
ambient :class:`~repro.nn.Arena` only for large shapes, the working
set recycles across steps (steady state stops accumulating pool
misses), and every inference op is bit-identical to its training
counterpart.
"""

import numpy as np
import pytest

from repro.nn import (
    Arena,
    Module,
    Tensor,
    active_arena,
    functional as F,
    inference_mode,
    is_inference,
    scratch_empty,
    scratch_zeros,
    use_arena,
)
from repro.nn.tensor import (
    _ARENA_MIN_ELEMS,
    _SCATTER_ROUNDS_MAX_DEPTH,
    _arena_out,
    _scatter_add_rows,
    concatenate,
    gather,
    scatter_add,
    segment_matmul,
)


# -- mode semantics ----------------------------------------------------------


def test_mode_is_scoped_and_reentrant():
    assert not is_inference()
    with inference_mode():
        assert is_inference()
        with inference_mode():  # re-entrant, like default_dispatch_mode
            assert is_inference()
        assert is_inference()
    assert not is_inference()


def test_mode_restored_on_exception():
    with pytest.raises(RuntimeError, match="boom"):
        with inference_mode():
            raise RuntimeError("boom")
    assert not is_inference()


def test_no_tape_inside_inference_mode(rng):
    a = Tensor(rng.standard_normal((8, 8)).astype(np.float32),
               requires_grad=True)
    b = Tensor(rng.standard_normal((8, 8)).astype(np.float32),
               requires_grad=True)
    with inference_mode():
        out = F.relu(a @ b + a)
    assert out._parents == ()
    assert out._backward is None
    assert out._inference


def test_backward_raises_on_inference_tensor(rng):
    a = Tensor(rng.standard_normal((4,)).astype(np.float32),
               requires_grad=True)
    with inference_mode():
        y = (a * a).sum()
    with pytest.raises(RuntimeError, match="inference_mode"):
        y.backward()


def test_training_tape_works_again_after_the_block(rng):
    a = Tensor(rng.standard_normal((4,)).astype(np.float32),
               requires_grad=True)
    with inference_mode():
        (a * a).sum()
    loss = (a * a).sum()  # outside: tape is back
    loss.backward()
    np.testing.assert_allclose(a.grad, 2.0 * a.data, rtol=1e-6)


# -- arena plumbing ----------------------------------------------------------


def test_use_arena_nests_and_restores():
    outer, inner = Arena(), Arena()
    assert active_arena() is None
    with use_arena(outer):
        assert active_arena() is outer
        with use_arena(inner):
            assert active_arena() is inner
        assert active_arena() is outer
    assert active_arena() is None


def test_scratch_bypasses_arena_outside_inference():
    arena = Arena()
    with use_arena(arena):  # no inference_mode: plain allocator
        scratch_empty((256, 256))
    assert arena.live_buffers == 0


def test_scratch_small_shapes_bypass_the_arena():
    arena = Arena()
    small = (_ARENA_MIN_ELEMS - 1,)
    large = (_ARENA_MIN_ELEMS,)
    with inference_mode(), use_arena(arena):
        scratch_empty(small)
        assert arena.live_buffers == 0
        scratch_empty(large)
        assert arena.live_buffers == 1
        z = scratch_zeros(large)
        assert arena.live_buffers == 2
        assert not z.any()
        assert _arena_out(small) is None
        out = _arena_out(large)
        assert out is not None and out.shape == large
    arena.reset()


def test_arena_out_is_none_without_arena():
    with inference_mode():
        assert _arena_out((_ARENA_MIN_ELEMS,)) is None


def test_arena_steady_state_has_no_misses(rng):
    """Second step with the same shapes is served entirely from the pool."""
    arena = Arena()
    x = rng.standard_normal((64, 128)).astype(np.float32)
    w = rng.standard_normal((128, 128)).astype(np.float32)

    def step():
        with inference_mode(), use_arena(arena):
            return F.relu(Tensor(x) @ Tensor(w))

    arena.reset()
    step()
    warm = arena.stats()
    assert warm["misses"] > 0  # the warm-up actually allocated
    arena.reset()
    # Arena outputs are valid only until the next reset — copy first.
    first = step().data.copy()
    arena.reset()
    second = step()
    steady = arena.stats()
    assert steady["misses"] == warm["misses"]  # zero new allocations
    assert steady["hits"] > warm["hits"]
    # Same numbers, even though the buffers were recycled in between.
    np.testing.assert_array_equal(first, second.data)


def test_deep_forward_inference_keeps_every_buffer(rng):
    """More live buffers of one shape than a capped free list keeps
    (16): from the second call on, every one is served from the pool."""

    class Deep(Module):
        def forward(self, x):
            for _ in range(24):
                x = F.relu(x)
            return x

    model = Deep()
    x = Tensor(rng.standard_normal((64, 128)).astype(np.float32))
    model.forward_inference(x)
    warm = model._inference_arena.stats()
    assert warm["misses"] >= 24
    for _ in range(3):
        model.forward_inference(x)
        assert model._inference_arena.stats()["misses"] == warm["misses"]


# -- bit-identical functional parity -----------------------------------------


def _parity(fn, *arrays):
    """fn under training vs inference+arena: byte-for-byte equal."""
    train = fn(*[Tensor(a) for a in arrays]).data.copy()
    arena = Arena()
    with inference_mode(), use_arena(arena):
        infer = fn(*[Tensor(a) for a in arrays]).data.copy()
    arena.reset()
    np.testing.assert_array_equal(train, infer)


@pytest.mark.parametrize("shape", [(3, 5), (64, 128), (2, 7, 96)])
def test_elementwise_and_norm_parity(rng, shape):
    x = rng.standard_normal(shape).astype(np.float32)
    w = rng.standard_normal(shape[-1]).astype(np.float32)
    b = rng.standard_normal(shape[-1]).astype(np.float32)
    _parity(F.relu, x)
    _parity(F.exp, x)
    _parity(F.softmax, x)
    _parity(lambda t: F.layer_norm(t, Tensor(w), Tensor(b)), x)


@pytest.mark.parametrize("size", [7, _ARENA_MIN_ELEMS + 5])
def test_relu_parity_on_signed_zeros_nan_and_inf(rng, size):
    """One relu body: both modes agree bit for bit off the finite range."""
    special = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf], np.float32)
    x = rng.standard_normal(size).astype(np.float32)
    x[: special.size] = special
    train = F.relu(Tensor(x)).data.copy()
    arena = Arena()
    with inference_mode(), use_arena(arena):
        infer = F.relu(Tensor(x)).data.copy()
    arena.reset()
    np.testing.assert_array_equal(train.view(np.int32), infer.view(np.int32))
    expected = np.array([0.0, 0.0, np.nan, np.inf, 0.0], np.float32)
    np.testing.assert_array_equal(
        train[: special.size].view(np.int32), expected.view(np.int32)
    )


def test_matmul_gather_concat_parity(rng):
    a = rng.standard_normal((64, 96)).astype(np.float32)
    b = rng.standard_normal((96, 80)).astype(np.float32)
    idx = rng.integers(0, 64, size=200)
    _parity(lambda t, u: t @ u, a, b)
    _parity(lambda t: gather(t, idx), a)
    _parity(lambda t, u: concatenate([t, u], axis=1), a, a)


def test_segment_matmul_parity(rng):
    rows = rng.standard_normal((100, 32)).astype(np.float32)
    weights = rng.standard_normal((4, 32, 48)).astype(np.float32)
    counts = np.array([10, 0, 60, 30])
    _parity(
        lambda r, w: segment_matmul(r, w, counts),
        rows,
        weights,
    )


# -- the occurrence-round scatter vs np.add.at -------------------------------


@pytest.mark.parametrize(
    "num_rows,depth_hint",
    [(16, 1), (16, 2), (8, 4), (4, _SCATTER_ROUNDS_MAX_DEPTH),
     (2, _SCATTER_ROUNDS_MAX_DEPTH + 5)],  # last one takes the fallback
)
def test_scatter_add_inference_matches_add_at(rng, num_rows, depth_hint):
    n = num_rows * depth_hint
    idx = rng.integers(0, num_rows, size=n)
    values = rng.standard_normal((n, 24)).astype(np.float32)
    expected = np.zeros((num_rows, 24), dtype=np.float32)
    np.add.at(expected, idx, values)
    got = np.zeros((num_rows, 24), dtype=np.float32)
    _scatter_add_rows(got, idx, values)
    np.testing.assert_array_equal(got, expected)


def test_scatter_add_inference_empty_and_tensor_entry(rng):
    out = np.ones((3, 4), dtype=np.float32)
    _scatter_add_rows(out, np.array([], dtype=np.int64),
                           np.empty((0, 4), dtype=np.float32))
    np.testing.assert_array_equal(out, np.ones((3, 4), dtype=np.float32))
    # And through the public op, under the mode flag.
    idx = rng.integers(0, 6, size=40)
    vals = rng.standard_normal((40, 8)).astype(np.float32)
    _parity(lambda v: scatter_add(v, idx, 6), vals)


# -- Module.forward_inference -------------------------------------------------


def test_forward_inference_matches_eval_and_reuses_arena(rng):
    from repro.nn.modules import Linear, Module

    class Net(Module):
        def __init__(self):
            super().__init__()
            self.fc1 = Linear(128, 256, rng)
            self.fc2 = Linear(256, 128, rng)

        def forward(self, x):
            return self.fc2(F.relu(self.fc1(x)))

    net = Net()
    x = Tensor(rng.standard_normal((64, 128)).astype(np.float32))
    net.eval()
    ref = net(x).data.copy()

    net.train()
    y1 = net.forward_inference(x)
    np.testing.assert_array_equal(y1.data, ref)
    assert y1._inference and y1._parents == ()
    assert net.training  # training flag restored

    arena = net._inference_arena
    misses = arena.stats()["misses"]
    y2 = net.forward_inference(x)
    assert net._inference_arena is arena  # same arena, not a new one
    assert arena.stats()["misses"] == misses  # steady state: pure reuse
    np.testing.assert_array_equal(y2.data, ref)
