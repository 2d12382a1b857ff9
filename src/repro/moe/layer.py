"""The MoE layer: gate -> dispatch -> (A2A) -> experts -> (A2A) -> combine.

This is the *numerical* MoE layer used by models and convergence
experiments.  Timing of its distributed execution lives in
:mod:`repro.core` / :mod:`repro.systems`; here the dispatch and
combine all-to-alls appear as their mathematical effect plus an
optional compressor roundtrip — the payload of each A2A is compressed
before transport and decompressed after, so a lossy codec corrupts
exactly the values it corrupts in the real system (paper Section 6.2).

The codec is applied to *both* directions, as in the real system: the
forward A2A ships compressed activations and the corresponding
backward A2A ships compressed gradients (the wire is the wire).  The
transformation itself is not differentiated — the error acts as noise
on values and on gradients, which is why coarse per-tensor INT8
measurably hurts convergence (gradients have wide dynamic range)
while block-scaled ZFP does not (paper Table 6 and the gradient
discussion in Section 7).

The layer has one forward.  Everything between the gate and the
output — dispatch, both A2A hops, the experts, the combine — is
:meth:`MoELayer._route`, the one place the test suite's dense GShard
reference (``tests/moe/legacy_dense.py``) swaps its own path in when
it pins a model to the reference numerics.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..compression.base import Compressor
from ..nn.modules import Module
from ..nn.tensor import Tensor, is_inference
from .dispatch import combine_grouped, dispatch_grouped
from .experts import Experts
from .gating import GateOutput, TopKGate
from .placement import checked_ids


class MoELayer(Module):
    """Sparsely activated feed-forward layer (paper Fig. 1).

    Parameters mirror the paper's Table 2 notation: ``model_dim`` M,
    ``hidden_dim`` H, ``num_experts`` E, ``top_k`` k and
    ``capacity_factor`` f.

    The layer has one execution path: it gathers the routed rows in
    the gate's :class:`~repro.moe.routing.RoutingPlan` expert-major
    order (:func:`~repro.moe.dispatch.dispatch_grouped`), runs each
    expert's contiguous segment through
    :meth:`~repro.moe.experts.Experts.run_grouped`, and combines
    straight from the flat rows
    (:func:`~repro.moe.dispatch.combine_grouped`) — ``O(N * M)`` in
    the number of routed assignments, forward and backward, with no
    (E, C, M) buffer anywhere, so memory traffic is independent of
    the capacity factor.  The test suite's reference, GShard einsums
    over one-hot (T, E, C) masks around a per-expert loop
    (``tests/moe/legacy_dense.py``), computes the same outputs and
    gradients: expert outputs agree bit-for-bit, combined tokens to
    float-addition reassociation (~1e-6).

    The layer itself never chunks: the paper's Section 4 pipeline (the
    C1 A1 D1 E C2 A2 D2 chain per chunk on two streams) runs in
    :class:`~repro.moe.parallel.ExpertParallelGroup`, which borrows
    this layer's gate and experts (``pipeline=`` and ``num_chunks=``
    are its arguments).
    """

    def __init__(
        self,
        model_dim: int,
        hidden_dim: int,
        num_experts: int,
        rng: np.random.Generator,
        top_k: int = 2,
        capacity_factor: float = 1.0,
        compressor: Optional[Compressor] = None,
    ):
        super().__init__()
        self.model_dim = model_dim
        self.gate = TopKGate(
            model_dim,
            num_experts,
            rng,
            top_k=top_k,
            capacity_factor=capacity_factor,
        )
        self.experts = Experts(num_experts, model_dim, hidden_dim, rng)
        self.compressor = compressor
        #: Experts currently considered lost (graceful degradation);
        #: see :meth:`set_dead_experts`.
        self._dead_experts: frozenset = frozenset()
        self._in_forward = False
        #: Auxiliary load-balancing loss of the most recent forward.
        self.last_aux_loss: Optional[Tensor] = None
        #: Gate statistics of the most recent forward.
        self.last_gate_output: Optional[GateOutput] = None
        #: Raw dispatched payload of the most recent forward — the
        #: *pre-compression* input handed to the first A2A's codec
        #: (for fidelity studies; with a lossy compressor the wire
        #: itself carries the codec's compressed encoding): the flat
        #: (N, M) routed rows, which *are* the wire payload.
        self.last_dispatched: Optional[np.ndarray] = None

    @property
    def dead_experts(self) -> frozenset:
        """Experts currently treated as lost (empty when healthy)."""
        return self._dead_experts

    def set_dead_experts(self, dead_experts) -> None:
        """Declare experts lost (e.g. their host worker died mid-run).

        Tokens routed to a dead expert are handled by the layer's
        existing capacity-drop semantics — combined as zeros with the
        surviving experts' weights renormalized
        (:meth:`~repro.moe.gating.GateOutput.with_experts_dropped`) —
        so training continues with bounded loss impact instead of
        crashing.  Pass an empty collection to restore full health;
        with no dead experts the forward path is bit-identical to a
        layer that never heard of faults.  Rejected while a forward is
        in flight (see :meth:`forward`).

        Recovering the lost experts instead of degrading — adopting
        them on surviving workers and re-instantiating parameters — is
        :class:`repro.faults.recovery.RecoveryController`'s job.
        """
        if self._in_forward:
            raise RuntimeError(
                "the dead-expert set cannot change while a forward "
                "pass is in flight; mutate the layer only between "
                "forwards"
            )
        num_experts = self.gate.num_experts
        dead = frozenset(checked_ids(dead_experts, num_experts, "dead expert"))
        if len(dead) == num_experts:
            raise ValueError(
                "all experts declared dead; the layer cannot degrade "
                "around a total loss"
            )
        self._dead_experts = dead

    def _transport(self, x: Tensor) -> Tensor:
        """One A2A hop: codec roundtrip on values and on gradients."""
        if self.compressor is None or self.compressor.bits_per_value >= 32:
            return x
        codec = self.compressor
        corrupted = codec.roundtrip(x.data)

        def backward(g):
            return (codec.roundtrip(g),)

        return Tensor._make(corrupted, (x,), backward)

    def forward(self, x: Tensor) -> Tensor:
        """(B, L, M) or (T, M) in; same shape out."""
        original_shape = x.shape
        if x.ndim == 3:
            tokens = x.reshape(-1, self.model_dim)
        elif x.ndim == 2:
            tokens = x
        else:
            raise ValueError(f"expected 2D or 3D input, got shape {x.shape}")
        # Mirrors ExpertParallelGroup's in-flight guard.  The dead set
        # is read once, right after gating, so a change from inside
        # the pass (a hook, another thread) would miss the pass in
        # flight while dead_experts already reported it;
        # set_dead_experts fails loudly instead.
        self._in_forward = True
        try:
            gate_out = self.gate(tokens)
            if self._dead_experts:
                gate_out = gate_out.with_experts_dropped(self._dead_experts)
            self.last_gate_output = gate_out
            self.last_aux_loss = gate_out.aux_loss
            merged = self._route(tokens, gate_out)
        finally:
            self._in_forward = False
        if len(original_shape) == 3:
            return merged.reshape(original_shape)
        return merged

    def _route(self, tokens: Tensor, gate_out: GateOutput) -> Tensor:
        """Dispatch, both A2A hops, the experts and the combine.

        Capacity-free: flat rows sorted by expert, no (E, C, M) buffer
        on either side of the expert FFNs.
        """
        plan = gate_out.plan
        rows = dispatch_grouped(tokens, plan)
        # Forward-only steps don't keep the wire payload around for
        # fidelity studies.
        self.last_dispatched = None if is_inference() else rows.data
        rows = self._transport(rows)  # first A2A
        expert_rows = self.experts.run_grouped(rows, plan.segment_counts)
        # Past the expert node only its tape reads the dispatched rows:
        # under inference they go now, before the combine.
        del rows
        expert_rows = self._transport(expert_rows)  # second A2A
        return combine_grouped(expert_rows, plan, gate_out.gate_weights)
