"""Optimizer tests."""

import numpy as np
import pytest

from repro.nn import Adam, clip_grad_norm
from repro.nn.modules import Parameter


def quadratic_params(rng):
    return [Parameter(rng.standard_normal(4).astype(np.float32) * 3)]


def minimize(opt, params, steps=300):
    for _ in range(steps):
        opt.zero_grad()
        loss = (params[0] ** 2).sum()
        loss.backward()
        opt.step()
    return float((params[0] ** 2).sum().data)


def test_adam_minimizes_quadratic(rng):
    params = quadratic_params(rng)
    final = minimize(Adam(params, lr=0.1), params)
    assert final < 1e-5


def test_optimizer_skips_gradless_params(rng):
    p = Parameter(np.ones(2, dtype=np.float32))
    opt = Adam([p], lr=0.1)
    opt.step()  # no grad: no movement, no crash
    np.testing.assert_allclose(p.data, 1.0)


def test_optimizer_validation(rng):
    p = Parameter(np.ones(2, dtype=np.float32))
    with pytest.raises(ValueError):
        Adam([p], lr=0.0)
    with pytest.raises(ValueError):
        Adam([], lr=0.1)
    with pytest.raises(ValueError):
        Adam([p], lr=float("nan"))


def test_clip_grad_norm(rng):
    p = Parameter(np.zeros(4, dtype=np.float32))
    p.grad = np.full(4, 3.0, dtype=np.float32)  # norm 6
    pre = clip_grad_norm([p], max_norm=3.0)
    assert pre == pytest.approx(6.0)
    assert np.linalg.norm(p.grad) == pytest.approx(3.0)
    # Below the cap: untouched.
    p.grad = np.full(4, 0.1, dtype=np.float32)
    clip_grad_norm([p], max_norm=3.0)
    np.testing.assert_allclose(p.grad, 0.1)
    with pytest.raises(ValueError):
        clip_grad_norm([p], max_norm=0.0)
    with pytest.raises(ValueError):
        clip_grad_norm([p], max_norm=float("nan"))
