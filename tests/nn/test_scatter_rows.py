"""The vectorized accumulating scatters against ``np.add.at``.

Three replacements in the training step must not move a single bit:
the occurrence-round ``_scatter_add_rows`` (combine forward, gather /
embedding / take_along_axis backward), the expert biases folded into
``expert_ffn``, and the in-place ``Adam.step``.  Every comparison
is on int32 views: ``np.array_equal`` calls -0.0 and +0.0 equal, and a
sign of zero is exactly what a reordered accumulation gets wrong.
"""

import numpy as np
import pytest

import repro.nn.fused as fused_module
from repro.nn import Tensor, expert_ffn, inference_mode, weighted_scatter_add
from repro.nn import functional as F
from repro.nn.modules import Parameter
from repro.nn.optim import _CHUNK, Adam
from repro.nn.tensor import _SCATTER_ROUNDS_MAX_DEPTH, _scatter_add_rows, gather

from ..moe.legacy_expert_step import legacy_adam_step, legacy_gathered_bias_ffn
from .legacy_segment_matmul import legacy_expert_ffn


def assert_bits_equal(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.dtype == expected.dtype == np.float32
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.int32), expected.view(np.int32))


def add_at(shape, idx, values):
    out = np.zeros(shape, np.float32)
    np.add.at(out, idx, values)
    return out


def indices_of_depth(rng, num_rows, depth):
    """A shuffled index whose deepest destination repeats ``depth`` times."""
    if depth == 0:
        return np.zeros(0, np.int64)
    counts = rng.integers(1, depth + 1, size=num_rows)
    counts[rng.integers(num_rows)] = depth
    return rng.permutation(np.repeat(np.arange(num_rows), counts))


def spread(rng, shape):
    """Values over many magnitudes, so any reordering changes the sum."""
    scale = 10.0 ** rng.uniform(-4, 4, size=shape)
    return (rng.standard_normal(shape) * scale).astype(np.float32)


# -- _scatter_add_rows ---------------------------------------------------


@pytest.mark.parametrize(
    "depth", [0, 1, 2, _SCATTER_ROUNDS_MAX_DEPTH, _SCATTER_ROUNDS_MAX_DEPTH + 1]
)
@pytest.mark.parametrize("width", [(), (1,), (7,)])
def test_rows_match_add_at_at_every_depth(rng, depth, width):
    idx = indices_of_depth(rng, 12, depth)
    assert np.bincount(idx, minlength=12).max(initial=0) == depth
    values = spread(rng, (idx.size,) + width)
    out = np.zeros((12,) + width, np.float32)
    _scatter_add_rows(out, idx, values)
    assert_bits_equal(out, add_at((12,) + width, idx, values))


def test_negative_zero_contributions_sum_to_positive_zero(rng):
    # Row 0: all -0.0 (add.at's +0.0 start makes it +0.0); row 1: -0.0
    # then a value; row 2: a value, -0.0 and its negation.
    idx = np.array([0, 1, 0, 2, 1, 2, 2, 0])
    values = np.array(
        [-0.0, -0.0, -0.0, 3.5, 2.0, -0.0, -3.5, -0.0], np.float32
    )[:, None] * np.ones((1, 3), np.float32)
    out = np.zeros((4, 3), np.float32)
    _scatter_add_rows(out, idx, values)
    expected = add_at((4, 3), idx, values)
    assert_bits_equal(out, expected)
    assert not np.signbit(out).any()


def test_negative_indices_count_from_the_end(rng):
    idx = rng.integers(-6, 6, size=40)
    values = spread(rng, (40, 5))
    out = np.zeros((6, 5), np.float32)
    _scatter_add_rows(out, idx, values)
    assert_bits_equal(out, add_at((6, 5), idx, values))


def test_empty_index_is_a_no_op():
    out = np.full((3, 2), 7.0, np.float32)
    _scatter_add_rows(out, np.zeros(0, np.int64), np.zeros((0, 2), np.float32))
    assert_bits_equal(out, np.full((3, 2), 7.0, np.float32))


# -- the ops that scatter through it, under training -----------------------


def unit_weights(n):
    """A constant (n, 1) column of ones: ``row * 1.0`` is ``row``."""
    return Tensor(np.ones((n, 1), np.float32))


@pytest.mark.parametrize("depth", [1, 2, _SCATTER_ROUNDS_MAX_DEPTH + 1])
def test_scatter_add_forward_matches_add_at_in_training(rng, depth):
    """The weighted combine with unit weights is ``np.add.at``."""
    idx = indices_of_depth(rng, 10, depth)
    values = Tensor(spread(rng, (idx.size, 4)), requires_grad=True)
    out = weighted_scatter_add(values, unit_weights(idx.size), idx, 10)
    assert_bits_equal(out.data, add_at((10, 4), idx, values.data))
    assert out._node.inputs == (values, None)


def test_scatter_add_of_nothing_is_zeros():
    out = weighted_scatter_add(
        Tensor(np.zeros((0, 3), np.float32)),
        unit_weights(0),
        np.zeros(0, np.int64),
        4,
    )
    assert_bits_equal(out.data, np.zeros((4, 3), np.float32))


@pytest.mark.parametrize(
    "idx",
    [
        np.array([3, -1, 0, 3, -4, 2, -1]),  # negative: np.take accepts them
        np.array([[0, 2, 2], [4, 0, 2]]),  # 2-d index along axis 0
        np.zeros(0, np.int64),
    ],
    ids=["negative", "two_d", "empty"],
)
def test_gather_backward_matches_add_at(rng, idx):
    x = Tensor(spread(rng, (5, 6)), requires_grad=True)
    out = gather(x, idx)
    seed = spread(rng, out.shape)
    out.backward(seed)
    assert_bits_equal(x.grad, add_at((5, 6), idx, seed))


def test_embedding_backward_matches_add_at(rng):
    weight = Tensor(spread(rng, (7, 4)), requires_grad=True)
    # Token 2 repeats past the round limit: the np.add.at fallback.
    # (Embedding ids lie in [0, V); gather covers negative indices.)
    idx = rng.permutation(np.r_[np.full(12, 2), rng.integers(0, 7, size=20)])
    idx = idx.reshape(4, 8)
    out = F.embedding(weight, idx)
    seed = spread(rng, out.shape)
    out.backward(seed)
    assert_bits_equal(weight.grad, add_at((7, 4), idx, seed))


@pytest.mark.parametrize("axis", [0, 1, -1])
def test_take_along_axis_backward_matches_add_at(rng, axis):
    x = Tensor(spread(rng, (4, 6)), requires_grad=True)
    shape = [4, 6]
    shape[axis] = 5
    # Duplicates and negative positions, not just unique top-k picks.
    idx = rng.integers(-x.shape[axis], x.shape[axis], size=shape)
    out = F.take_along_axis(x, idx, axis=axis)
    seed = spread(rng, out.shape)
    out.backward(seed)
    grid = np.indices(idx.shape)
    index = tuple(idx if a == axis % 2 else grid[a] for a in range(2))
    assert_bits_equal(x.grad, add_at((4, 6), index, seed))


def test_take_along_axis_backward_of_top_k_picks(rng):
    scores = spread(rng, (9, 8))
    x = Tensor(scores, requires_grad=True)
    top = F.top_k_indices(scores, 2)
    out = F.take_along_axis(x, top, axis=-1)
    seed = spread(rng, out.shape)
    out.backward(seed)
    rows = np.arange(9)[:, None]
    assert_bits_equal(x.grad, add_at((9, 8), (rows, top), seed))


# -- expert_ffn's folded biases ---------------------------------------------


def set_bucketing(monkeypatch, bucketed):
    """``bucketed=False`` puts every occupied segment on the singles loop."""
    if not bucketed:
        monkeypatch.setattr(fused_module, "_BUCKET_ROW_ELEMS", 0)


COUNTS = {
    "ragged": [5, 0, 3, 9, 0, 1],
    "equal": [4, 4, 4, 0, 4, 4],  # one multi-member size bucket
    "long": [0, 0, 300, 2, 0, 0],  # a J=1 column long enough to sum pairwise
    "all_empty": [0, 0, 0, 0, 0, 0],
}


@pytest.mark.parametrize("order", ["C", "F"])  # the gradient's layout
@pytest.mark.parametrize("bucketed", [True, False])
@pytest.mark.parametrize("width", [1, 2, 64])
@pytest.mark.parametrize("name", sorted(COUNTS))
def test_bias_matches_the_gathered_bias_chain(
    rng, monkeypatch, name, width, bucketed, order
):
    """Both folded biases against the per-row bias gather chain.  Model
    and hidden width are ``width``, so each bias gradient is a J=1
    column where ``width`` is 1."""
    set_bucketing(monkeypatch, bucketed)
    counts = np.asarray(COUNTS[name])
    n = int(counts.sum())
    arrays = (
        spread(rng, (n, width)),
        spread(rng, (6, width, width)),
        spread(rng, (6, 1, width)),
        spread(rng, (6, width, width)),
        spread(rng, (6, 1, width)),
    )
    seed = spread(rng, (n, width))
    occupied = np.nonzero(counts)[0]
    if occupied.size:  # the last occupied segment's gradient: all -0.0
        seed[n - counts[occupied[-1]] :] = -0.0
    seed = np.asarray(seed, order=order)

    def run(fn):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        out = fn(*leaves, counts)
        out.backward(seed)
        return [out.data] + [t.grad for t in leaves]

    fused = run(expert_ffn)
    # Output and b2's gradient always.  The other gradients only where
    # both run the same GEMM layout: a stacked GEMM over rows gathered
    # from an F-ordered gradient rounds differently from the 2-d GEMM
    # on its strided slice, with or without a bias, and b1's gradient
    # sums what that GEMM returns.
    same_layout = not bucketed or order == "C"
    compared = range(6) if same_layout else (0, 5)
    for ref in (run(legacy_gathered_bias_ffn), run(legacy_expert_ffn)):
        for i in compared:
            assert_bits_equal(fused[i], ref[i])
    # Independently of gather's backward: b2's adjoint is np.add.at.
    expert_of_row = np.repeat(np.arange(6), counts)
    assert_bits_equal(
        fused[5][:, 0], add_at((6, width), expert_of_row, seed)
    )


@pytest.mark.parametrize("bucketed", [True, False])
def test_bias_forward_under_inference_matches_training(
    rng, monkeypatch, bucketed
):
    set_bucketing(monkeypatch, bucketed)
    counts = np.array([40, 0, 70, 10])
    arrays = (
        spread(rng, (120, 64)),
        spread(rng, (4, 64, 48)),
        spread(rng, (4, 1, 48)),
        spread(rng, (4, 48, 64)),
        spread(rng, (4, 1, 64)),
    )
    train = expert_ffn(*(Tensor(a) for a in arrays), counts).data
    assert_bits_equal(train, legacy_expert_ffn(*arrays, counts).data)
    with inference_mode():
        out = expert_ffn(*(Tensor(a) for a in arrays), counts)
    assert out._node is None
    assert_bits_equal(out.data, train)


@pytest.mark.parametrize("shape", [(4, 5), (4, 6), (3, 1, 5), (5,)])
def test_bias_of_the_wrong_shape_raises_naming_both(rng, shape):
    x = np.zeros((3, 2), np.float32)
    w1 = np.zeros((4, 2, 5), np.float32)
    w2, b2 = np.zeros((4, 5, 2), np.float32), np.zeros((4, 1, 2), np.float32)
    with pytest.raises(ValueError) as err:
        expert_ffn(x, w1, np.zeros(shape), w2, b2, np.array([1, 0, 2, 0]))
    assert str(shape) in str(err.value)
    assert str((4, 2, 5)) in str(err.value)


# -- in-place Adam -----------------------------------------------------------


def test_in_place_adam_matches_the_textbook_expressions(rng):
    # The last: two slices, the second of 37 elements.
    shapes = [(6, 5, 7), (7,), (3, 4), (1,), (_CHUNK + 37, 1)]
    start = [spread(rng, s) for s in shapes]
    grads = [[spread(rng, s) for s in shapes] for _ in range(20)]

    def run(step):
        """Parameters and both moments after each of 20 steps."""
        params = [Parameter(a.copy()) for a in start]
        opt = Adam(params, lr=3e-2)
        history = []
        for step_grads in grads:
            for i, (p, g) in enumerate(zip(params, step_grads)):
                p.grad = None if i == 2 else g.copy()  # the third: never
            step(opt)
            state = [p.data for p in params] + opt._m + opt._v
            history.append([a.copy() for a in state])
        return history

    in_place, legacy = run(Adam.step), run(legacy_adam_step)
    for got, expected in zip(in_place, legacy):
        for a, b in zip(got, expected):
            assert_bits_equal(a, b)
    assert_bits_equal(in_place[-1][2], start[2])  # never moved


@pytest.mark.parametrize("moment", [None, "_m", "_v"])
def test_adam_rejects_a_non_contiguous_parameter(rng, moment):
    """A flat view of a transposed array would be a copy: no silent no-op."""
    params = [Parameter(spread(rng, (4,))), Parameter(spread(rng, (3, 5)))]
    opt = Adam(params, lr=1e-2)
    if moment is None:
        params[1].data = params[1].data.T
    else:
        getattr(opt, moment)[1] = np.zeros((5, 3), np.float32).T
    for p in params:
        p.grad = np.ones_like(p.data)
    before = params[0].data.copy()
    with pytest.raises(ValueError, match="parameter 1's"):
        opt.step()
    assert_bits_equal(params[0].data, before)  # a rejected step moves nothing
    assert opt._step == 0
