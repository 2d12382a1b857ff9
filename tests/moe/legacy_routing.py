"""The legacy one-hot-cumsum slot assignment, kept as a test reference.

Production routing is :func:`~repro.moe.routing.route_fused` (one
stable sort).  This independently derived formulation is what the
parity suites check its slot arrays against.
"""

import numpy as np


def assign_capacity_slots(
    top_idx: np.ndarray, num_experts: int, capacity: int
) -> np.ndarray:
    """Vectorized GShard FCFS slot assignment.

    ``top_idx`` is the (T, k) expert choice of every token.  Choices
    are processed choice-major — all first choices in token order,
    then all second choices — and each assignment takes the next free
    slot of its expert, or is dropped (slot ``-1``) once the expert's
    ``capacity`` slots are full.  A cumulative sum over the
    choice-major one-hot expert mask computes every assignment's
    position within its expert in one shot; positions beyond capacity
    are exactly the assignments the greedy loop would skip, because a
    skipped assignment never frees a slot.  ``O(T * k * E)`` in time
    and memory, the blow-up the fused kernel removes.
    """
    num_tokens, top_k = top_idx.shape
    if num_tokens == 0 or capacity == 0:
        return np.full((num_tokens, top_k), -1, dtype=np.int64)
    flat_experts = top_idx.T.reshape(-1)  # choice-major (k*T,)
    onehot = flat_experts[:, None] == np.arange(num_experts)[None, :]
    ranks = onehot.cumsum(axis=0, dtype=np.int64) - 1
    flat_positions = ranks[np.arange(flat_experts.shape[0]), flat_experts]
    flat_positions = np.where(flat_positions < capacity, flat_positions, -1)
    return flat_positions.reshape(top_k, num_tokens).T
