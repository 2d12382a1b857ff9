"""Reverse-mode automatic differentiation over numpy arrays.

A small tape-based autograd engine in the spirit of PyTorch's, built
so the MoE layer's full training semantics — gating softmax, top-k
routing, grouped dispatch/combine, expert FFNs — differentiate exactly
like they would in the paper's PyTorch implementation.

Design: every operation computes its result and hands it, its inputs
and a closure that maps the output gradient to one gradient per input
to :meth:`Tensor._make`, which builds the output tensor and, when an
input needs grad, the output's tape node.  The graph lives in those
nodes, not in the tensors: a node holds its closure and one entry per
input — the input's own node, the input itself when it is a leaf that
requires grad (the tensor its gradient accumulates into), or ``None``
for a constant.  A :class:`Tensor` holds only ``data``, ``grad``,
``requires_grad``, its node and the inference mark below.
:meth:`Tensor.backward` topologically sorts the nodes and accumulates gradients into ``.grad`` of leaf
tensors with ``requires_grad=True``.

**What a node saves.**  A closure captures only the arrays its formula
reads, and shapes otherwise; it never captures an input tensor.  So an
intermediate whose consumers' backwards do not read it — a ``Linear``'s
pre-bias product (the bias add reads nothing), the residual stream
(adds read nothing, ``layer_norm`` reads its normalized rows), the
logits (``cross_entropy`` keeps its log-probabilities), the gate
logits (``softmax`` keeps its output), a dense FFN's pre-ReLU hidden
(``relu`` keeps its output) — is freed as soon as the forward drops
it, while the tape is still being built.  A product saves each factor
only when the other factor needs a gradient, so scaling by a constant
keeps nothing.  Attention keeps q, k, v and the lower block triangle
of its probabilities (see
:func:`~repro.nn.functional.scaled_dot_product_attention`).  The MoE
expert FFN is one node (:func:`~repro.nn.fused.expert_ffn`) that keeps its input rows
and its post-ReLU hidden: no pre-ReLU hidden exists even in the
forward, and its backward never holds an (N, H) gradient, only one
segment's.  The weighted combine
(:func:`~repro.nn.fused.weighted_scatter_add`) keeps
the expert rows and their gate weights, and never builds the weighted
rows.

**A tape is single-use.**  As the walk reaches each node it takes the
node's backward closure and inputs off it, so the activations that
closure saved are freed as soon as it has run, block by block during
the backward, and a tensor kept past the step (an MoE layer's
``last_aux_loss``, say) holds only its data and a spent node.  The
spent node keeps a backward that raises: a second backward through the
graph, or through a new graph built on one of its intermediates,
raises a :class:`RuntimeError` before any gradient moves (PyTorch's
default ``retain_graph=False``, with no option to retain).  Leaves are
never consumed, so gradients accumulate across fresh graphs as usual.
A backward from a tensor with no node that does not require grad (a
loss built from constants only, or ``detach()``ed) raises too, since
no gradient could reach a parameter.

**Inference mode.**  :func:`inference_mode` is a process-wide context
under which the tape is never built: :meth:`Tensor._needs_grad`, which
:meth:`Tensor._make` consults, reports False, so no node is recorded,
no closure is retained, and every intermediate array is released the
moment its consumer has run.  The forward itself is the same code in
both modes, so its outputs are the same bits.  Tensors produced inside
the context are marked, and calling :meth:`Tensor.backward` on one
raises an error that names the mode.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]

# -- inference mode (process-wide, context-managed) ------------------

_inference_mode = False


@contextmanager
def inference_mode():
    """Forward-only execution: no autograd tape anywhere inside.

    Process-wide and re-entrant.  Inside the block every op
    short-circuits its tape construction (no node, no backward
    closure), so intermediates die as soon as their consumers run and
    a pure forward pass stops paying training-peak memory.
    Tensors created inside are marked: calling ``backward()`` on one
    raises a :class:`RuntimeError`.

    The flag is a module global read under the GIL — the overlap
    executor's worker threads observe the mode their driving forward
    set, but interleaving training and inference forwards from
    *different* threads is not supported.
    """
    global _inference_mode
    previous = _inference_mode
    _inference_mode = True
    try:
        yield
    finally:
        _inference_mode = previous


def is_inference() -> bool:
    """Whether an :func:`inference_mode` block is active."""
    return _inference_mode


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum away leading broadcast dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum dimensions that were size-1 in the original.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


#: Elements per slice of a pass that streams a large array through one
#: scratch buffer: the weighted combine's staging, ``clip_grad_norm``'s
#: squares and Adam's update.  256 KiB of float32, so a slice stays in
#: L2 while the pass works on it.
_CHUNK = 1 << 16


def _pairwise_split(n: int) -> int:
    """Where numpy's pairwise sum splits a contiguous run of ``n`` floats.

    Numpy sums such a run (a whole contiguous array, or one row of
    one) pairwise: a run of more than 128 elements is summed as its
    first ``n // 2`` elements, rounded down to a multiple of 8, plus
    the rest, each half by the same rule; a shorter run is one pass of
    eight strided accumulators.  Attention's padded row sums and
    ``clip_grad_norm``'s sliced sum of squares follow these splits to
    reproduce numpy's sum bit for bit.
    """
    half = n // 2
    return half - half % 8


def _refs_in_callee(grad: np.ndarray) -> int:
    return sys.getrefcount(grad)


def _sole_owner_refs() -> int:
    """What ``sys.getrefcount`` reads in :meth:`Tensor._accumulate` on
    an array that only the backward walk's local holds.

    The call and getrefcount's own argument add references, and how
    many differs between CPython versions, so the count is measured
    once on a frame pair shaped like the walk's.
    """
    node_grad = np.empty(0, np.float32)
    return _refs_in_callee(node_grad)


_SOLE_OWNER_REFS = _sole_owner_refs()


def _freed_backward(grad: np.ndarray):
    """The backward of a node whose tape an earlier walk freed."""
    raise RuntimeError(
        "this tensor's autograd tape was freed by an earlier backward(): "
        "the tape is single-use, and each node drops its saved "
        "activations and inputs once its backward has run.  Re-run the "
        "forward to build a new graph."
    )


class _Node:
    """One recorded op: its backward closure and its inputs' entries.

    ``backward`` maps the output gradient to a tuple of gradients
    aligned with ``inputs`` (``None`` where it computes none).  Each
    entry of ``inputs`` is the input's own node, the input itself when
    it is a leaf that requires grad (the gradient's accumulation
    target), or ``None`` for a constant.  No entry is an intermediate
    tensor, so the node keeps none of their data alive.
    """

    __slots__ = ("backward", "inputs")

    def __init__(self, backward: Callable, inputs: tuple):
        self.backward = backward
        self.inputs = inputs


class Tensor:
    """A numpy array with an autograd tape."""

    __slots__ = ("data", "grad", "requires_grad", "_node", "_inference")

    def __init__(self, data: ArrayLike, requires_grad: bool = False):
        if isinstance(data, Tensor):
            raise TypeError("wrap raw arrays, not Tensors")
        self.data = np.asarray(data, dtype=np.float32)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._node: Optional[_Node] = None
        # Tensors born inside inference_mode() carry no tape by
        # construction; the mark names that cause when backward()
        # refuses them.
        self._inference = _inference_mode

    # -- basic introspection -------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def detach(self) -> "Tensor":
        """A view with the tape cut."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        grad = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad})"

    # -- tape management -----------------------------------------------
    @staticmethod
    def _needs_grad(*tensors: "Tensor") -> bool:
        """Whether a gradient must flow to any of ``tensors``.

        An op asks it once for all its inputs before it records a node,
        and about one input before it saves an array that only that
        input's gradient reads.
        """
        if _inference_mode:
            # The single choke point every op consults before recording
            # a node: under inference_mode() nothing ever needs grad, so
            # no tape exists anywhere.
            return False
        # A freed node keeps its (raising) closure, so an op on it still
        # records a node, and a backward through it fails loudly.
        return any(t.requires_grad or t._node is not None for t in tensors)

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is not None:
            self.grad += grad
        elif (
            grad.dtype == np.float32
            and grad.flags.c_contiguous
            and grad.flags.writeable
            and grad.base is None
            and sys.getrefcount(grad) <= _SOLE_OWNER_REFS
        ):
            # A leaf's fresh gradient that nothing else holds is adopted,
            # not copied (PyTorch's AccumulateGrad steals on the same
            # use-count test).  An array the walk also routes to another
            # input is still in its ``grads`` dict, so the count rules
            # out aliasing; so does the caller's seed, which
            # :meth:`backward`'s ``grad`` keeps.
            self.grad = grad
        else:
            self.grad = grad.astype(np.float32, copy=True)

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode AD from this tensor.

        ``grad`` defaults to ones (only valid for scalar outputs this
        is the conventional seed of 1.0).

        The walk consumes the graph: each node drops its closure (with
        the arrays it saved) and its inputs when the walk reaches it.
        Calling ``backward`` again on any tensor whose graph reaches a
        consumed node raises :class:`RuntimeError` without touching a
        gradient; re-run the forward instead.  So does a tensor with
        no tape at all that does not require grad (a constant, a
        ``detach()`` result, an ``inference_mode()`` output): a
        gradient from it could reach no parameter.
        """
        if self._node is None and not self.requires_grad:
            if self._inference:
                raise RuntimeError(
                    "this tensor was produced under inference_mode(): no "
                    "autograd tape was recorded, so there is nothing to "
                    "differentiate.  Re-run the forward outside the "
                    "inference_mode() block to train."
                )
            raise RuntimeError(
                "this tensor has no autograd tape and does not require "
                "grad (built from constants only, or detach()ed), so "
                "backward() would reach no parameter"
            )
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a "
                    f"scalar output, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float32)
        if grad.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {grad.shape} != tensor shape {self.shape}"
            )

        # Vertices are nodes and the leaves they accumulate into.
        root = self if self._node is None else self._node
        order: list = []
        seen = set()

        def inputs_of(vertex) -> tuple:
            return vertex.inputs if isinstance(vertex, _Node) else ()

        stack = [(root, iter(inputs_of(root)))]
        seen.add(id(root))
        while stack:
            current, inputs = stack[-1]
            advanced = False
            for entry in inputs:
                if entry is not None and id(entry) not in seen:
                    seen.add(id(entry))
                    stack.append((entry, iter(inputs_of(entry))))
                    advanced = True
                    break
            if not advanced:
                if (
                    isinstance(current, _Node)
                    and current.backward is _freed_backward
                ):
                    _freed_backward(grad)  # before any gradient moves
                order.append(current)
                stack.pop()

        grads = {id(root): grad}
        while order:
            vertex = order.pop()
            node_grad = grads.pop(id(vertex), None)
            if not isinstance(vertex, _Node):
                if node_grad is not None:
                    vertex._accumulate(node_grad)
                continue
            # Single use: the node gives up its closure (and the
            # activations it saved) and its inputs before it runs, so
            # only ``order`` and this frame hold the graph still to be
            # walked.
            backward, inputs = vertex.backward, vertex.inputs
            vertex.backward, vertex.inputs = _freed_backward, ()
            if node_grad is None:
                continue
            for entry, pgrad in zip(inputs, backward(node_grad)):
                if entry is None or pgrad is None:
                    continue
                key = id(entry)
                if key in grads:
                    grads[key] = grads[key] + pgrad
                else:
                    grads[key] = pgrad
            pgrad = None  # a leftover reference would block adoption

    # -- arithmetic ------------------------------------------------------
    @staticmethod
    def _lift(value: ArrayLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        sa, sb = self.shape, other.shape

        def backward(g):
            return _unbroadcast(g, sa), _unbroadcast(g, sb)

        return self._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g):
            return (-g,)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._lift(other))

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        sa, sb = self.shape, other.shape
        # Each factor is saved only for the other's gradient.
        a = self.data if self._needs_grad(other) else None
        b = other.data if self._needs_grad(self) else None

        def backward(g):
            return (
                None if b is None else _unbroadcast(g * b, sa),
                None if a is None else _unbroadcast(g * a, sb),
            )

        return self._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._lift(other)
        sa, sb = self.shape, other.shape
        a = self.data if self._needs_grad(other) else None
        b = other.data

        def backward(g):
            return (
                _unbroadcast(g / b, sa),
                None if a is None
                else _unbroadcast(-g * a / (b * b), sb),
            )

        return self._make(self.data / other.data, (self, other), backward)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        x = self.data

        def backward(g):
            return (g * exponent * x ** (exponent - 1),)

        return self._make(x**exponent, (self,), backward)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = self._lift(other)
        sa, sb = self.shape, other.shape
        if len(sa) < 2 or len(sb) < 2:
            raise ValueError(
                f"matmul operands must be at least 2-d, got {sa} @ {sb}"
            )
        # Each operand is saved only for the other's gradient.
        a = self.data if self._needs_grad(other) else None
        b = other.data if self._needs_grad(self) else None

        def backward(g):
            ga = gb = None
            if b is not None:
                ga = _unbroadcast(g @ np.swapaxes(b, -1, -2), sa)
            if a is not None:
                gb = _unbroadcast(np.swapaxes(a, -1, -2) @ g, sb)
            return ga, gb

        return self._make(self.data @ other.data, (self, other), backward)

    # -- reductions ------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        shape = self.shape

        def backward(g):
            grad = g
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            return (np.broadcast_to(grad, shape).copy(),)

        return self._make(
            self.data.sum(axis=axis, keepdims=keepdims), (self,), backward
        )

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- shape ops --------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape

        def backward(g):
            return (g.reshape(original),)

        return self._make(self.data.reshape(shape), (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)

        def backward(g):
            return (g.transpose(inverse),)

        return self._make(self.data.transpose(axes), (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        def backward(g):
            return (g.swapaxes(a, b),)

        return self._make(self.data.swapaxes(a, b), (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        shape = self.shape

        def backward(g):
            grad = np.zeros(shape, np.float32)
            np.add.at(grad, index, g)
            return (grad,)

        return self._make(self.data[index], (self,), backward)

    # -- constructor helper ------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        inputs: Tuple["Tensor", ...],
        backward: Callable,
    ) -> "Tensor":
        """The op's output, with a tape node when an input needs grad
        (``backward`` is dropped otherwise).

        ``backward`` returns one gradient per entry of ``inputs``; it
        must close over the arrays its formula reads, never over an
        input tensor, or it would keep that tensor's data alive.
        """
        out = Tensor(data)
        if Tensor._needs_grad(*inputs):
            out._node = _Node(
                backward,
                tuple(
                    t._node if t._node is not None
                    else (t if t.requires_grad else None)
                    for t in inputs
                ),
            )
        return out


def gather(x: Tensor, indices: np.ndarray) -> Tensor:
    """Differentiable row gather: ``x[indices]`` along axis 0.

    ``indices`` is a raw integer array (routing decisions are not
    differentiated); the backward pass scatter-adds the output
    gradient back into the gathered rows through
    :func:`_scatter_add_rows`, so an index appearing twice accumulates
    both contributions, bit-identical to ``np.add.at``.  This is the
    forward half of the sparse MoE dispatch path — an ``O(N * M)``
    data movement instead of the dense einsum's ``O(T * E * C * M)``
    contraction.
    """
    x = Tensor._lift(x)
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise TypeError(f"indices must be integers, got {idx.dtype}")
    if x.ndim == 0:
        raise ValueError("cannot gather from a 0-d tensor")
    data = np.take(x.data, idx, axis=0)
    shape = x.shape

    def backward(g):
        grad = np.zeros(shape, np.float32)
        _scatter_add_rows(
            grad, idx.reshape(-1), g.reshape((idx.size,) + shape[1:])
        )
        return (grad,)

    return x._make(data, (x,), backward)


#: Deepest index multiplicity the padded round-sum scatter handles:
#: its (rows, depth, ...) staging buffer and its depth sequential adds
#: both scale with the deepest duplicate, so past ~top-k depths the
#: buffered ``np.add.at`` is the better loser.  The embedding gradient
#: of a frequent token falls back there.
_SCATTER_ROUNDS_MAX_DEPTH = 8


def _scatter_add_rows(
    out: np.ndarray, idx: np.ndarray, values: np.ndarray
) -> None:
    """``out[idx] += values`` with duplicate indices, vectorized.

    ``np.add.at`` is the correctness workhorse of the accumulating
    scatter but cannot vectorize (any element might collide with any
    other), which makes it the single most expensive non-GEMM op of
    the MoE combine and of every gather's backward.  This version
    exploits what the router guarantees — each destination receives
    at most top-k contributions — by splitting the input into
    *occurrence rounds*: element n's round is how many earlier
    elements target the same destination.  Within a round
    destinations are unique by construction, so each round is one
    fancy-index scatter; summing the per-round planes in round order
    reproduces ``np.add.at``'s sequential order exactly.

    ``idx`` is 1-d and indexes ``out``'s leading axis; negative
    entries count from the end, as in ``np.take``.  Bit-identical to
    ``np.add.at(out, idx, values)`` on the zeroed ``out`` every caller
    passes: each destination accumulates its contributions in input
    order starting from +0.0, and the trailing +0.0 pads (destinations
    with fewer than ``depth`` contributions) are exact identities — a
    partial sum seeded from +0.0 can never be -0.0, the only value
    ``+ 0.0`` would alter.  An ``out`` that already holds results
    (and so possibly -0.0) is outside that contract.

    The backward of :func:`gather` and ``embedding`` scatter through
    here; the weighted combine stages its parts through
    :func:`_scatter_add_parts` directly.
    """
    _scatter_add_parts(out, idx, values.dtype, ((slice(None), values),))


def _scatter_add_parts(out: np.ndarray, idx: np.ndarray, dtype, parts) -> None:
    """:func:`_scatter_add_rows` with ``values`` arriving in parts.

    ``parts`` yields ``(positions, rows)`` pairs, ``values[positions]
    = rows`` (of ``dtype``); a position no part names leaves ``out``
    untouched (the round sums stage +0.0 for it, an exact identity on
    the zeroed ``out`` that :func:`_scatter_add_rows` requires).  Each
    part goes straight into the round staging, so a caller whose
    values come in pieces (the expert-parallel combine, one per source
    worker) never assembles them.  On a zeroed ``out`` this is
    bit-identical to ``np.add.at`` on the assembled ``values``: the
    rounds, and so every destination's accumulation order, follow
    ``idx`` alone.
    """
    if idx.size == 0:
        return
    idx, depth, occ = _occurrence_rounds(idx, out.shape[0])
    if depth <= 1:
        # No duplicates at all: the compound fancy-index add is safe
        # and fully vectorized.
        for positions, rows in parts:
            out[idx[positions]] += rows
    elif occ is None:
        values = np.zeros((idx.size,) + out.shape[1:], dtype)
        for positions, rows in parts:
            values[positions] = rows
        np.add.at(out, idx, values)
    else:
        pad = np.zeros((out.shape[0], depth) + out.shape[1:], dtype)
        for positions, rows in parts:
            pad[idx[positions], occ[positions]] = rows
        for r in range(depth):
            out += pad[:, r]


def _occurrence_rounds(idx: np.ndarray, num_rows: int):
    """``(idx, depth, occ)``: the rounds of the accumulating scatter.

    Negative entries of ``idx`` are wrapped (``np.bincount`` rejects
    what ``np.take`` accepted); ``depth`` is the deepest index
    multiplicity, and ``occ[n]`` is element n's round, computed only
    for the padded round sum (``1 < depth <=
    _SCATTER_ROUNDS_MAX_DEPTH``; ``None`` otherwise).
    """
    if idx.min() < 0:
        idx = np.where(idx < 0, idx + num_rows, idx)
    counts = np.bincount(idx, minlength=num_rows)
    depth = int(counts.max(initial=0))
    if not 1 < depth <= _SCATTER_ROUNDS_MAX_DEPTH:
        return idx, depth, None
    order = np.argsort(idx, kind="stable")
    starts = np.concatenate([[0], np.cumsum(counts[:-1])])
    occ = np.empty(idx.shape[0], dtype=np.int64)
    occ[order] = np.arange(idx.shape[0], dtype=np.int64) - starts[idx[order]]
    return idx, depth, occ


def _row_sum(rows: np.ndarray) -> np.ndarray:
    """Sum of a C-contiguous (n >= 1, J) block's rows, in row order.

    Matches ``np.add.at`` accumulating the rows into one zeroed row:
    numpy reduces axis 0 of such a block one row at a time, and the
    trailing ``+ 0.0`` pins ``np.add.at``'s +0.0 start whichever way
    the reduction is seeded — it turns an all-(-0.0) column's -0.0
    into +0.0 and changes nothing else.  A single column is one
    contiguous run, which numpy would sum pairwise, so it accumulates
    explicitly.
    """
    if rows.shape[1] == 1:
        return np.add.accumulate(rows[:, 0])[-1:] + 0.0
    return rows.sum(axis=0) + 0.0
