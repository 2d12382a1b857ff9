"""Parameter initializers (seeded, deterministic)."""

from __future__ import annotations

import numpy as np


def xavier_uniform(
    rng: np.random.Generator, fan_in: int, fan_out: int, shape=None
) -> np.ndarray:
    """Glorot uniform initialization."""
    if fan_in <= 0 or fan_out <= 0:
        raise ValueError("fans must be positive")
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    shape = shape if shape is not None else (fan_in, fan_out)
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


def normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal with std 0.02 (embedding tables, GPT-style)."""
    return (rng.standard_normal(shape) * 0.02).astype(np.float32)
