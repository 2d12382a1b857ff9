"""The autograd-free inference fast path of the tensor substrate.

Two contracts under test.  First, ``inference_mode()`` semantics: no
tape is recorded anywhere inside the block, tensors born there refuse
``backward()`` with a clear error, and the mode nests and restores
like the other process-wide defaults.  Second, every inference op is
bit-identical to its training counterpart.
"""

import numpy as np
import pytest

from repro.nn import (
    Tensor,
    expert_ffn,
    functional as F,
    inference_mode,
    is_inference,
    weighted_scatter_add,
)
from repro.nn.tensor import _SCATTER_ROUNDS_MAX_DEPTH, _scatter_add_rows, gather


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
    assert out._node is None
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


# -- bit-identical functional parity -----------------------------------------


def _parity(fn, *arrays):
    """fn on the tape vs under inference: byte-for-byte equal."""
    train = fn(*[Tensor(a, requires_grad=True) for a in arrays])
    assert train._node is not None
    with inference_mode():
        infer = fn(*[Tensor(a, requires_grad=True) for a in arrays])
    assert infer._node is None
    np.testing.assert_array_equal(train.data, infer.data)


@pytest.mark.parametrize("shape", [(3, 5), (64, 128), (2, 7, 96)])
def test_elementwise_and_norm_parity(rng, shape):
    x = rng.standard_normal(shape).astype(np.float32)
    w = rng.standard_normal(shape[-1]).astype(np.float32)
    b = rng.standard_normal(shape[-1]).astype(np.float32)
    _parity(F.relu, x)
    _parity(F.softmax, x)
    _parity(lambda t: F.layer_norm(t, Tensor(w), Tensor(b)), x)


@pytest.mark.parametrize("size", [7, 4101])
def test_relu_parity_on_signed_zeros_nan_and_inf(rng, size):
    """One relu body: both modes agree bit for bit off the finite range."""
    special = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf], np.float32)
    x = rng.standard_normal(size).astype(np.float32)
    x[: special.size] = special
    train = F.relu(Tensor(x)).data
    with inference_mode():
        infer = F.relu(Tensor(x)).data
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


def test_expert_ffn_parity(rng):
    rows = rng.standard_normal((100, 32)).astype(np.float32)
    bank = [
        rng.standard_normal(shape).astype(np.float32)
        for shape in ((4, 32, 48), (4, 1, 48), (4, 48, 32), (4, 1, 32))
    ]
    counts = np.array([10, 0, 60, 30])
    _parity(lambda r, *b: expert_ffn(r, *b, counts), rows, *bank)


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
    # And through the weighted combine, under the mode flag.
    idx = rng.integers(0, 6, size=40)
    vals = rng.standard_normal((40, 8)).astype(np.float32)
    weights = rng.random((40, 1)).astype(np.float32)
    _parity(lambda v, w: weighted_scatter_add(v, w, idx, 6), vals, weights)


# -- Module.forward_inference -------------------------------------------------


def test_forward_inference_matches_eval_and_restores_training(rng):
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
    assert y1._inference and y1._node is None
    assert net.training  # the training flag is left alone
