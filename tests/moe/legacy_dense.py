"""The dense GShard MoE path, kept as a test reference.

Production :class:`~repro.moe.layer.MoELayer` runs one path: grouped
dispatch over the gate's :class:`~repro.moe.routing.RoutingPlan`, one
:func:`~repro.nn.fused.expert_ffn` node, one weighted combine.  This
module is the form it replaced, with the same float ops: the routing
densified into one-hot ``(T, E, C)`` masks, the dispatch and combine
as einsums over them, and the experts run one at a time over their
slice of an ``(E, C, M)`` capacity buffer, padding slots included.
The parity suites compare the production layer against it on the same
parameters.

:func:`pinned` sends every ``MoELayer`` forward through this path by
swapping the layer's one seam, ``MoELayer._route`` (everything between
the gate and the output), and :func:`forward` is the dense forward of
one layer.  Table 6's convergence bench trains under :func:`pinned`,
because its recorded trajectories are the reference numerics.
"""

import contextlib

import numpy as np

from repro.moe.gating import GateOutput
from repro.moe.layer import MoELayer
from repro.nn import functional as F
from repro.nn.tensor import Tensor, is_inference


def stack(tensors, axis=0):
    """Differentiable stacking along a new ``axis``."""
    tensors = [Tensor._lift(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)
    count = len(tensors)

    def backward(g):
        parts = np.split(g, count, axis=axis)
        return tuple(np.squeeze(part, axis=axis) for part in parts)

    return Tensor._make(data, tuple(tensors), backward)


def einsum(subscripts, *tensors):
    """Differentiable einsum for explicit (``->``) subscripts.

    Gradients are computed by rewriting the einsum with the output and
    the other operands swapped.
    """
    tensors = [Tensor._lift(t) for t in tensors]
    if "->" not in subscripts:
        raise ValueError("einsum requires explicit '->' output subscripts")
    inputs, output = subscripts.split("->")
    terms = inputs.split(",")
    if len(terms) != len(tensors):
        raise ValueError(
            f"einsum got {len(tensors)} operands for {len(terms)} terms"
        )
    operands = [t.data for t in tensors]
    data = np.einsum(subscripts, *operands)

    def backward(g):
        grads = []
        for i in range(len(terms)):
            other_terms = [terms[j] for j in range(len(terms)) if j != i]
            other_data = [operands[j] for j in range(len(terms)) if j != i]
            sub = ",".join([output] + other_terms) + "->" + terms[i]
            # Dimensions of terms[i] absent from output and the other
            # operands (summed-out free dims) need broadcasting; they
            # cannot appear for our use cases, so einsum suffices.
            grads.append(np.einsum(sub, g, *other_data))
        return tuple(grads)

    return Tensor._make(data, tuple(tensors), backward)


# -- the gate's dense operands ------------------------------------------------


def _refuse_under_inference(name):
    if is_inference():
        raise RuntimeError(
            f"refusing to densify {name} under "
            "inference_mode(): the (T, E, C) masks exist only "
            "for the dense reference backend; the forward-only "
            "path must stay on the sparse RoutingPlan"
        )


def _grouped_coords(gate_out: GateOutput) -> tuple:
    """(t, e, slot) of every routed assignment, in grouped order.

    The coordinates are unique, so a scatter through them is the
    same whatever order they come in.
    """
    plan = gate_out.plan
    return (
        plan.grouped_token_ids,
        plan.grouped_expert_ids,
        plan.slot_indices[plan.grouped_token_ids, plan.grouped_choice_ids],
    )


def dispatch_mask(gate_out: GateOutput) -> np.ndarray:
    """Raw (T, E, C) 0/1 routing mask of a gate output."""
    _refuse_under_inference("dispatch_mask")
    plan = gate_out.plan
    mask = np.zeros(
        (plan.num_tokens, plan.num_experts, plan.capacity),
        dtype=np.float32,
    )
    mask[_grouped_coords(gate_out)] = 1.0
    return mask


def combine_weights(gate_out: GateOutput) -> Tensor:
    """(T, E, C) differentiable combine weights of a gate output.

    The scatter keeps the tape: the dense gradient at each kept
    (t, e, c) coordinate flows back to the corresponding
    ``gate_weights`` entry, exactly as the reference einsum
    formulation propagates it.
    """
    _refuse_under_inference("combine_weights")
    norm = gate_out.gate_weights
    plan = gate_out.plan
    coords = _grouped_coords(gate_out)
    w_idx = (plan.grouped_token_ids, plan.grouped_choice_ids)
    shape = (plan.num_tokens, plan.num_experts, plan.capacity)
    data = np.zeros(shape, dtype=np.float32)
    data[coords] = norm.data[w_idx]
    norm_shape = norm.shape

    def backward(g):
        grad = np.zeros(norm_shape, dtype=np.float32)
        grad[w_idx] = g[coords]
        return (grad,)

    return norm._make(data, (norm,), backward)


# -- dispatch, experts, combine -----------------------------------------------


def dispatch(tokens: Tensor, dispatch_mask: np.ndarray) -> Tensor:
    """Route (T, M) tokens to (E, C, M) expert inputs (dense einsum).

    ``dispatch_mask`` is the gate's raw 0/1 (T, E, C) array; slots with
    no token stay zero (padding the expert batch to capacity, as the
    real system does so tensor shapes are static).
    """
    if tokens.ndim != 2:
        raise ValueError(f"tokens must be (T, M), got {tokens.shape}")
    if dispatch_mask.ndim != 3 or dispatch_mask.shape[0] != tokens.shape[0]:
        raise ValueError(
            f"mask {dispatch_mask.shape} incompatible with tokens "
            f"{tokens.shape}"
        )
    return einsum("tm,tec->ecm", tokens, Tensor(dispatch_mask))


def combine(expert_outputs: Tensor, combine_weights: Tensor) -> Tensor:
    """Merge (E, C, M) expert outputs into (T, M) tokens (dense einsum).

    ``combine_weights`` carries the differentiable gate probabilities;
    a token dropped by capacity receives all-zero output (GShard
    semantics — the residual connection around the MoE layer keeps its
    representation alive).
    """
    if expert_outputs.ndim != 3:
        raise ValueError(
            f"expert outputs must be (E, C, M), got {expert_outputs.shape}"
        )
    return einsum("ecm,tec->tm", expert_outputs, combine_weights)


def run_expert(experts, expert: int, x: Tensor) -> Tensor:
    """Apply one expert's FFN of the bank ``experts`` to (rows, M).

    The step of the :func:`run_experts` loop.  Gradients flow into the
    stacked parameters through the slice.
    """
    if not 0 <= expert < experts.num_experts:
        raise IndexError(
            f"expert {expert} out of range [0, {experts.num_experts})"
        )
    h = F.relu(x @ experts.w1[expert] + experts.b1[expert])
    return h @ experts.w2[expert] + experts.b2[expert]


def run_experts(experts, dispatched: Tensor) -> Tensor:
    """Reference loop: apply expert e to slice (e, :, :) of (E, C, M).

    Every slot, padding included, goes through its expert's FFN;
    returns (E, C, M).
    """
    if (
        dispatched.ndim != 3
        or dispatched.shape[0] != experts.num_experts
        or dispatched.shape[2] != experts.model_dim
    ):
        raise ValueError(
            f"expected ({experts.num_experts}, C, {experts.model_dim}) "
            f"input, got {dispatched.shape}"
        )
    return stack(
        [
            run_expert(experts, e, dispatched[e])
            for e in range(experts.num_experts)
        ],
        axis=0,
    )


# -- the dense layer ----------------------------------------------------------


def _dense_route(layer, tokens: Tensor, gate_out: GateOutput) -> Tensor:
    """``MoELayer._route`` on the reference: einsums around the loop.

    ``layer.last_dispatched`` is the (E, C, M) capacity buffer.
    """
    dispatched = dispatch(tokens, dispatch_mask(gate_out))
    layer.last_dispatched = dispatched.data
    dispatched = layer._transport(dispatched)  # first A2A
    # second A2A
    expert_out = layer._transport(run_experts(layer.experts, dispatched))
    return combine(expert_out, combine_weights(gate_out))


@contextlib.contextmanager
def pinned():
    """Run every ``MoELayer`` forward on the dense reference path.

    The gate, dead-expert degradation and the in-flight guard stay the
    layer's own; only what lies between the gate and the output is
    swapped.  The production path is back on exit, also when the body
    raises.
    """
    production = MoELayer._route
    MoELayer._route = _dense_route
    try:
        yield
    finally:
        MoELayer._route = production


def forward(layer: MoELayer, x: Tensor) -> Tensor:
    """The dense reference forward of ``layer`` on ``x``."""
    with pinned():
        return layer(x)
