"""Optimizers and gradient utilities."""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from .tensor import Tensor


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


#: Elements per slice of an :class:`Adam` step.  A slice's six arrays
#: (parameter, gradient, both moments, two scratch buffers) take
#: ~1.5 MiB, so the step's 13 passes over it stay in L2.
_CHUNK = 1 << 16


#: Adam's moment decay rates and denominator offset.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam(Optimizer):
    """Adam with bias correction (``BETA1``, ``BETA2``, ``EPS``).

    The update is evaluated in place, one ``_CHUNK``-element slice of
    each parameter at a time, through two scratch buffers of one slice
    each instead of fresh temporaries.  Every slice runs the textbook
    expressions' float ops in their order, and every op is elementwise,
    so the result is bit-identical to

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


def clip_grad_norm(parameters: Iterable[Tensor], max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm.
    """
    if not max_norm > 0:  # also rejects NaN
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    params = [p for p in parameters if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad**2).sum()) for p in params)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total
