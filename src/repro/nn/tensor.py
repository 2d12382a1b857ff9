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
        # Each operand is saved only for the other's gradient.
        a = self.data if self._needs_grad(other) else None
        b = other.data if self._needs_grad(self) else None

        def backward(g):
            ga = gb = None
            if len(sa) == 1 and len(sb) == 1:
                if b is not None:
                    ga = g * b
                if a is not None:
                    gb = g * a
                return ga, gb
            if b is not None:
                if len(sb) == 1:
                    ga = g[..., :, None] * b[None, :]
                else:
                    ga = g @ np.swapaxes(b, -1, -2)
                ga = _unbroadcast(ga, sa)
            if a is not None:
                if len(sa) != 1:
                    gb = np.swapaxes(a, -1, -2) @ g
                elif len(sb) == 2:
                    gb = np.outer(a, g)
                else:
                    gb = a[..., :, None] * g[..., None, :]
                gb = _unbroadcast(gb, sb)
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


def gather(x: Tensor, indices: np.ndarray, axis: int = 0) -> Tensor:
    """Differentiable row gather: ``x[indices]`` along ``axis``.

    ``indices`` is a raw integer array (routing decisions are not
    differentiated); the backward pass scatter-adds the output
    gradient back into the gathered rows, so an index appearing twice
    accumulates both contributions (along axis 0 through
    :func:`_scatter_add_rows`, bit-identical to ``np.add.at``).  This
    is the forward half of the sparse MoE dispatch path — an
    ``O(N * M)`` data movement instead of the dense einsum's
    ``O(T * E * C * M)`` contraction.
    """
    x = Tensor._lift(x)
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise TypeError(f"indices must be integers, got {idx.dtype}")
    if x.ndim == 0:
        raise ValueError("cannot gather from a 0-d tensor")
    axis = axis % x.ndim
    data = np.take(x.data, idx, axis=axis)
    shape = x.shape

    def backward(g):
        grad = np.zeros(shape, np.float32)
        if axis == 0:
            _scatter_add_rows(
                grad, idx.reshape(-1), g.reshape((idx.size,) + shape[1:])
            )
        else:
            moved = np.moveaxis(grad, axis, 0)
            np.add.at(moved, idx, np.moveaxis(g, axis, 0))
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

    :func:`scatter_add` and the backward of :func:`gather` and
    ``embedding`` scatter through here; the weighted combine stages
    its parts through :func:`_scatter_add_parts` directly.
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


def _scatter_index(values: "Tensor", indices: np.ndarray, num_rows: int):
    """``indices`` as an array, checked as scatter rows of ``values``."""
    idx = np.asarray(indices)
    if not np.issubdtype(idx.dtype, np.integer):
        raise TypeError(f"indices must be integers, got {idx.dtype}")
    if idx.ndim != 1 or values.ndim < 1 or idx.shape[0] != values.shape[0]:
        raise ValueError(
            f"indices {idx.shape} must be 1-d and match the leading "
            f"dimension of values {values.shape}"
        )
    if num_rows < 0:
        raise ValueError(f"num_rows must be >= 0, got {num_rows}")
    if idx.size and (idx.min() < 0 or idx.max() >= num_rows):
        raise IndexError(
            f"indices out of range for {num_rows} rows: "
            f"[{idx.min()}, {idx.max()}]"
        )
    return idx


def scatter_add(
    values: Tensor,
    indices: np.ndarray,
    num_rows: int,
) -> Tensor:
    """Differentiable scatter-add of rows into a zero tensor.

    ``out[indices[n]] += values[n]`` for every leading-position ``n``;
    the result has shape ``(num_rows,) + values.shape[1:]``.  Rows of
    the output not named by any index stay zero (capacity padding in
    the MoE dispatch).  The backward pass is a gather of the output
    gradient at the same indices — the exact adjoint.

    Repeated indices accumulate in input order through the
    occurrence-round scatter :func:`_scatter_add_rows`, in training
    and inference alike — bit-identical to ``np.add.at`` but
    vectorized.
    """
    values = Tensor._lift(values)
    idx = _scatter_index(values, indices, num_rows)
    out = np.zeros((num_rows,) + values.shape[1:], np.float32)
    _scatter_add_rows(out, idx, values.data)

    def backward(g):
        return (g[idx],)

    return values._make(out, (values,), backward)


#: Largest per-segment LHS block (rows * K elements) that still gains
#: from the stacked-GEMM bucket path: beyond ~16 KB of float32 the
#: fancy-index gather costs more than the per-call overhead it saves
#: (measured on the bench shapes; 2-d BLAS on a contiguous slice wins).
_BUCKET_ROW_ELEMS = 4096


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


def _segment_counts(
    op: str, x_shape: tuple, w_shape: tuple, segment_counts
) -> np.ndarray:
    """``segment_counts`` as an array, checked against (N, K) rows and
    an (E, K, J) weight bank."""
    counts = np.asarray(segment_counts)
    if not np.issubdtype(counts.dtype, np.integer):
        raise TypeError(f"segment_counts must be integers, got {counts.dtype}")
    if len(x_shape) != 2 or len(w_shape) != 3:
        raise ValueError(
            f"{op} expects (N, K) x and (E, K, J) weight, "
            f"got {x_shape} and {w_shape}"
        )
    if counts.ndim != 1 or counts.shape[0] != w_shape[0]:
        raise ValueError(f"segment_counts {counts.shape} must be ({w_shape[0]},)")
    if counts.size and counts.min() < 0:
        raise ValueError("segment_counts must be >= 0")
    if x_shape[1] != w_shape[1]:
        raise ValueError(f"inner dimensions differ: {x_shape} @ {w_shape}")
    if int(counts.sum()) != x_shape[0]:
        raise ValueError(
            f"segment_counts sum {int(counts.sum())} != rows {x_shape[0]}"
        )
    return counts


def _segment_plan(counts: np.ndarray):
    """``(offsets, classes)``: where each segment starts, and the
    occupied segments grouped by length.

    ``classes`` lists ``(length, experts)`` by increasing length, each
    ``experts`` ascending.  A class of small equal-length segments runs
    as one stacked GEMM (:func:`_stacks`), so balanced large-E routing
    pays one GEMM call per distinct size instead of one per expert.
    """
    offsets = np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])
    occupied = np.nonzero(counts)[0]
    by_size: dict = {}
    for e, length in zip(occupied.tolist(), counts[occupied].tolist()):
        by_size.setdefault(length, []).append(e)
    return offsets, sorted(by_size.items())


def _stacks(length: int, experts: list, k: int) -> bool:
    """Whether a size class's GEMMs over inner dimension ``k`` run as
    one stacked ``np.matmul``: it has two or more members, and each
    member's (length, k) block is at most ``_BUCKET_ROW_ELEMS``."""
    return len(experts) > 1 and length * k <= _BUCKET_ROW_ELEMS


def _class_rows(offsets: np.ndarray, length: int, experts: list) -> np.ndarray:
    """The (B, length) row indices of a size class's segments."""
    return offsets[experts][:, None] + np.arange(length)


def segment_matmul(
    x: Tensor,
    weight: Tensor,
    segment_counts: np.ndarray,
    bias: Optional[Tensor] = None,
) -> Tensor:
    """Differentiable per-segment matmul against a stacked weight bank.

    ``x`` is ``(N, K)`` whose rows are grouped into E contiguous
    segments (``segment_counts[e]`` rows each, summing to N) and
    ``weight`` a stacked ``(E, K, J)`` bank; segment e's rows multiply
    ``weight[e]``:

    ``out[start_e : start_e + counts[e]] = x[same] @ weight[e]``

    An optional ``(E, J)`` ``bias`` adds row ``bias[e]`` to every
    output row of segment e right after that segment's GEMM, inside
    the loop — the same single float add per element as adding a
    per-row gather of the bias, with no ``(N, J)`` bias rows ever
    materialized — and its gradient is each occupied segment's
    output-gradient rows summed in row order (zero for empty
    segments), bit-identical to the gather's ``np.add.at`` adjoint.

    This is the capacity-free grouped GEMM: routed token rows sorted by
    expert flow through each expert's weight without ever
    materializing the (E, C, M) capacity buffer.  The forward loops
    over *occupied* segments only (``counts[e] == 0`` costs nothing —
    an expert that received no tokens is simply skipped, where the
    capacity formulation would still carry its C padding slots), and
    each segment GEMM is bit-identical to the per-expert reference
    ``x_seg @ weight[e]``.  The MoE expert step runs two of these
    around a ReLU as one fused node, :func:`~repro.nn.fused.expert_ffn`.

    The backward accumulates per-segment gradients into the stacked
    bank with the exact adjoints of each slice —

    * ``grad_x[seg_e] = g[seg_e] @ weight[e]^T``
    * ``grad_w[e]     = x[seg_e]^T @ g[seg_e]``  (zero for empty
      segments)

    — so one tape node covers the whole bank, over ragged row groups
    instead of a fixed capacity dimension.  ``grad_x`` is skipped when
    ``x`` needs no gradient (rows dispatched from a constant input).

    Occupied *small* segments of equal length are batched into one
    stacked ``np.matmul`` per size class (:func:`_segment_plan`) —
    forward and backward.  Batched matmul computes each slice exactly as the
    corresponding 2-d product (numpy dispatches the same GEMM kernel
    per batch slice), so results are bit-identical to the unbucketed
    loop (``tests/nn/legacy_segment_matmul.py`` keeps that loop as the
    parity reference).  Bucketing only pays when the per-call dispatch
    overhead it removes exceeds the row gather it adds, i.e. for
    segments whose LHS block is small —
    segments above the ``_BUCKET_ROW_ELEMS`` threshold and singleton
    buckets, which have nothing to batch, stay on the plain
    per-segment GEMM, where 2-d BLAS on a contiguous slice is already
    optimal.
    """
    x = Tensor._lift(x)
    weight = Tensor._lift(weight)
    counts = _segment_counts("segment_matmul", x.shape, weight.shape, segment_counts)
    inputs = (x, weight)
    if bias is not None:
        bias = Tensor._lift(bias)
        if bias.shape != (weight.shape[0], weight.shape[2]):
            raise ValueError(
                f"bias {bias.shape} must be (E, J) = "
                f"{(weight.shape[0], weight.shape[2])} for weight "
                f"{weight.shape}"
            )
        inputs = (x, weight, bias)
    offsets, classes = _segment_plan(counts)
    # Per class: its experts, and its (B, L) row indices when it runs
    # as one stacked GEMM (None: one plain GEMM per segment).
    plan = [
        (
            experts,
            _class_rows(offsets, length, experts)
            if _stacks(length, experts, x.shape[1])
            else None,
        )
        for length, experts in classes
    ]

    data = np.empty((x.shape[0], weight.shape[2]), np.float32)
    for experts, rows in plan:
        if rows is not None:
            out = np.matmul(x.data[rows], weight.data[experts])
            if bias is not None:
                out += bias.data[experts][:, None, :]
            data[rows] = out
            continue
        for e in experts:
            lo, hi = offsets[e], offsets[e + 1]
            out = data[lo:hi]
            np.matmul(x.data[lo:hi], weight.data[e], out=out)
            if bias is not None:
                out += bias.data[e]

    x_data, w_data = x.data, weight.data
    need_x = Tensor._needs_grad(x)
    bias_shape = None if bias is None else bias.shape

    def backward(g):
        grad_x = np.empty_like(x_data) if need_x else None
        # Every occupied expert's slice is overwritten below.
        grad_w = np.empty_like(w_data)
        grad_w[counts == 0] = 0.0
        for experts, rows in plan:
            if rows is not None:
                g_b = g[rows]
                if need_x:
                    grad_x[rows] = np.matmul(
                        g_b, np.swapaxes(w_data[experts], -1, -2)
                    )
                grad_w[experts] = np.matmul(
                    np.swapaxes(x_data[rows], -1, -2), g_b
                )
                continue
            for e in experts:
                lo, hi = offsets[e], offsets[e + 1]
                if need_x:
                    np.matmul(g[lo:hi], w_data[e].T, out=grad_x[lo:hi])
                np.matmul(x_data[lo:hi].T, g[lo:hi], out=grad_w[e])
        if bias_shape is None:
            return grad_x, grad_w
        grad_b = np.zeros(bias_shape, np.float32)
        g = np.ascontiguousarray(g)  # _row_sum's order needs C rows
        for _, experts in classes:
            for e in experts:
                grad_b[e] = _row_sum(g[offsets[e]:offsets[e + 1]])
        return grad_x, grad_w, grad_b

    return Tensor._make(data, inputs, backward)
