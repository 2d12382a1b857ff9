"""``clip_grad_norm`` squares large gradients one slice at a time.

A gradient larger than one ``_CHUNK`` slice is split at numpy's
pairwise split points until each piece fits, squared piece by piece
into one scratch slice and summed back up the same tree, so the norm
and the clipped gradients are those of ``(g**2).sum()`` bit for bit,
while the clip allocates about one slice, not one gradient.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.nn import clip_grad_norm
from repro.nn.modules import Parameter
from repro.nn.optim import _CHUNK

from ..moe.legacy_expert_step import legacy_clip_grad_norm


def _params(rng, shapes):
    params = []
    for shape in shapes:
        p = Parameter(np.zeros(shape, np.float32))
        p.grad = rng.standard_normal(shape).astype(np.float32)
        params.append(p)
    return params


@pytest.mark.parametrize(
    "shape",
    [(7,), (_CHUNK,), (_CHUNK + 1,), (2 * _CHUNK - 1,), (3, 77777), (32, 256, 512)],
    ids=str,
)
def test_norm_and_clipped_grads_are_the_whole_square_sum(rng, shape):
    """Beside a small gradient, so the sum mixes both forms."""
    params = _params(rng, [shape, (5, 3)])
    ref = [Parameter(p.data.copy()) for p in params]
    for mine, theirs in zip(params, ref):
        theirs.grad = mine.grad.copy()
    for max_norm in (1e9, 1e-3):  # untouched, then scaled
        norm = clip_grad_norm(params, max_norm)
        assert norm == legacy_clip_grad_norm(ref, max_norm)
        for mine, theirs in zip(params, ref):
            assert np.array_equal(mine.grad.view(np.int32), theirs.grad.view(np.int32))
    assert norm > 1e-3


def test_clip_peaks_below_about_one_slice(rng):
    """A (32, 256, 512) gradient is 16 MiB; the clip allocates one
    slice of scratch, not a gradient-sized square."""
    (p,) = _params(rng, [(32, 256, 512)])
    tracemalloc.start()
    try:
        clip_grad_norm([p], 1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < _CHUNK * 4 + (64 << 10)


def test_clip_holds_no_gradient_after_it_returns(rng):
    """Nothing the clip made (a scratch slice, a recursive helper)
    keeps a gradient alive once it has returned, even with the cyclic
    collector off."""
    params = _params(rng, [(3, 77777), (5, 3)])
    refs = [weakref.ref(p.grad) for p in params]
    gc.disable()
    try:
        clip_grad_norm(params, 1e-3)
        for p in params:
            p.grad = None
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()
