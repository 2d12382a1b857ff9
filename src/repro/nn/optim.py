"""Optimizers and gradient utilities."""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from .tensor import _CHUNK, Tensor, _pairwise_split


class Optimizer:
    """Base optimizer over a fixed parameter list."""

    def __init__(self, parameters: Iterable[Tensor], lr: float):
        if not lr > 0:  # also rejects NaN
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.parameters: List[Tensor] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer got an empty parameter list")
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


#: Adam's moment decay rates and denominator offset.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam(Optimizer):
    """Adam with bias correction (``BETA1``, ``BETA2``, ``EPS``).

    The update is evaluated in place, one ``_CHUNK``-element slice of
    each parameter at a time, through two scratch buffers of one slice
    each instead of fresh temporaries.  A slice's six arrays
    (parameter, gradient, both moments, two scratch buffers) take
    ~1.5 MiB, so the step's 13 passes over it stay in L2.  Every slice
    runs the textbook expressions' float ops in their order, and every
    op is elementwise, so the result is bit-identical to

    ``m = b1·m + (1−b1)·g;  v = b2·v + (1−b2)·g²;``
    ``p −= lr · ((m / bc1) / (√(v / bc2) + eps))``.

    Slicing needs flat writable views, so :meth:`step` raises
    ``ValueError``, before it moves anything, on a parameter whose data
    or moments are not C-contiguous.
    """

    def __init__(self, parameters: Iterable[Tensor], lr: float = 1e-3):
        super().__init__(parameters, lr)
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        size = min(_CHUNK, max(p.data.size for p in self.parameters))
        self._scratch = (np.empty(size, np.float32), np.empty(size, np.float32))

    def step(self) -> None:
        state = list(zip(self.parameters, self._m, self._v))
        # Checked up front, so a rejected step moves nothing.
        for i, (p, m, v) in enumerate(state):
            for name, arr in (("data", p.data), ("m", m), ("v", v)):
                if p.grad is not None and not arr.flags.c_contiguous:
                    raise ValueError(
                        f"Adam: parameter {i}'s {name} is not C-contiguous; "
                        "the in-place step needs a flat view of it"
                    )
        self._step += 1
        bc1 = 1.0 - BETA1**self._step
        bc2 = 1.0 - BETA2**self._step
        for p, m, v in state:
            if p.grad is None:
                continue
            flat = [a.reshape(-1) for a in (p.data, p.grad, m, v)]
            for start in range(0, p.data.size, _CHUNK):
                chunk = (a[start : start + _CHUNK] for a in flat)
                self._update(*chunk, bc1, bc2)

    def _update(self, p, g, m, v, bc1: float, bc2: float) -> None:
        """One slice's update, in place on ``p``, ``m`` and ``v``."""
        a, b = (s[: g.size] for s in self._scratch)
        m *= BETA1
        np.multiply(1.0 - BETA1, g, out=a)
        m += a
        v *= BETA2
        np.multiply(g, g, out=a)
        np.multiply(1.0 - BETA2, a, out=a)
        v += a
        np.divide(m, bc1, out=a)  # a: the update
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        np.add(b, EPS, out=b)
        np.divide(a, b, out=a)
        np.multiply(self.lr, a, out=a)
        p -= a


def _sum_of_squares(flat: np.ndarray, scratch: np.ndarray):
    """``(flat**2).sum()`` of a contiguous 1-d array, one slice at a time.

    A run longer than ``scratch`` is split where numpy's pairwise sum
    splits it (:func:`~repro.nn.tensor._pairwise_split`) until each
    piece fits; each piece is squared into ``scratch`` and summed, and
    the pieces' sums add back up the same tree, so the result is
    numpy's sum of the whole squared array, bit for bit.
    """
    n = flat.size
    if n <= scratch.size:
        squares = scratch[:n]
        np.multiply(flat, flat, out=squares)
        return squares.sum()
    half = _pairwise_split(n)
    return _sum_of_squares(flat[:half], scratch) + _sum_of_squares(
        flat[half:], scratch
    )


def clip_grad_norm(parameters: Iterable[Tensor], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm,
    ``sqrt(sum(float((p.grad**2).sum()) for each p))`` bit for bit.  A
    gradient of at most one ``_CHUNK`` slice is squared whole, as that
    expression does; a larger one is squared one slice at a time into
    one scratch slice, summed along numpy's pairwise split points
    (:func:`_sum_of_squares`), so no gradient-sized square is ever
    allocated.  The clip scales each gradient in place.
    """
    if not max_norm > 0:  # also rejects NaN
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    params = [p for p in parameters if p.grad is not None]
    scratch = None
    sums = []
    for p in params:
        g = p.grad
        if g.size <= _CHUNK:
            sums.append(float((g**2).sum()))
            continue
        if scratch is None or scratch.dtype != g.dtype:
            scratch = np.empty(_CHUNK, g.dtype)
        sums.append(float(_sum_of_squares(g.reshape(-1), scratch)))
    total = float(np.sqrt(sum(sums)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total
