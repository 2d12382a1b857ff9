"""Expert bank: E independent feed-forward networks over stacked weights.

The paper's expert abstraction: experts are ordinary fflayers (two
GEMMs), abstracted so the profiler can time them
(:meth:`~repro.core.profiler.Profiler.expert_seconds`) and the
scheduler can split them into sub-tasks.  This module stores the
whole bank as *stacked* parameters

* ``w1``: ``(E, M, H)``,  ``b1``: ``(E, 1, H)``
* ``w2``: ``(E, H, M)``,  ``b2``: ``(E, 1, M)``

and runs it one way, :meth:`Experts.run_grouped`: capacity-free and
MegaBlocks-style, the flat routed rows, sorted by expert, flow through
:func:`~repro.nn.fused.expert_ffn` — each expert's contiguous row
segment runs through its stacked weight slices, occupied experts only,
no capacity dimension anywhere.  The MoE layer and
:class:`~repro.moe.parallel.ExpertParallelGroup` both run it
(Megatron-Core's grouped GEMM, with bias and activation folded in, is
the same single expert path).

Every row of the grouped output is bit-identical to the test suite's
reference loop, one expert at a time over an (E, C, M) capacity buffer
(``tests/moe/legacy_dense.py``), at the same (expert, slot): both are
the same per-row 2-d GEMMs (``tests/moe/test_expert_bank.py``).
"""

from __future__ import annotations

import numpy as np

from ..nn.init import xavier_uniform
from ..nn.modules import Module, Parameter
from ..nn.fused import expert_ffn
from ..nn.tensor import Tensor


class Experts(Module):
    """A bank of E feed-forward experts over stacked parameters."""

    def __init__(
        self,
        num_experts: int,
        model_dim: int,
        hidden_dim: int,
        rng: np.random.Generator,
    ):
        super().__init__()
        if num_experts < 1:
            raise ValueError(f"num_experts must be >= 1, got {num_experts}")
        self.num_experts = num_experts
        self.model_dim = model_dim
        self.hidden_dim = hidden_dim
        # Draw per-expert weights in the exact rng order the historical
        # per-expert FeedForward construction used (fc1 then fc2, one
        # expert at a time), so seeded models are bit-identical to
        # those built before the stacked layout existed.
        w1 = np.empty((num_experts, model_dim, hidden_dim), dtype=np.float32)
        w2 = np.empty((num_experts, hidden_dim, model_dim), dtype=np.float32)
        for e in range(num_experts):
            w1[e] = xavier_uniform(rng, model_dim, hidden_dim)
            w2[e] = xavier_uniform(rng, hidden_dim, model_dim)
        self.w1 = Parameter(w1)
        self.b1 = Parameter(np.zeros((num_experts, 1, hidden_dim), np.float32))
        self.w2 = Parameter(w2)
        self.b2 = Parameter(np.zeros((num_experts, 1, model_dim), np.float32))

    def reinit_expert(self, expert: int, rng: np.random.Generator) -> None:
        """Re-initialize one expert's parameters in place (recovery).

        Draws exactly what the constructor draws for one expert — fc1
        xavier, then fc2 xavier, biases zeroed — from ``rng``, so a
        recovery controller that seeds ``rng`` deterministically (see
        :class:`repro.faults.recovery.RecoveryController`) re-creates
        the same parameters on every replay.  Any optimizer moments
        attached to the bank's parameters are *not* touched: they are
        whole-bank arrays, and zeroing another expert's slice is the
        optimizer's caller's decision.
        """
        if not 0 <= expert < self.num_experts:
            raise IndexError(
                f"expert {expert} out of range [0, {self.num_experts})"
            )
        self.w1.data[expert] = xavier_uniform(
            rng, self.model_dim, self.hidden_dim
        )
        self.b1.data[expert] = 0.0
        self.w2.data[expert] = xavier_uniform(
            rng, self.hidden_dim, self.model_dim
        )
        self.b2.data[expert] = 0.0

    def load_expert_slice(
        self,
        expert: int,
        w1: np.ndarray,
        b1: np.ndarray,
        w2: np.ndarray,
        b2: np.ndarray,
    ) -> None:
        """Overwrite one expert's parameters with checkpointed values.

        The shapes must match the stacked layout exactly
        (``w1 (M, H)``, ``b1 (1, H)``, ``w2 (H, M)``, ``b2 (1, M)``) —
        row ``expert`` of each bank array that
        :func:`repro.nn.serialization.load_checkpoint` returns for a
        checkpoint of this bank's layer.
        """
        if not 0 <= expert < self.num_experts:
            raise IndexError(
                f"expert {expert} out of range [0, {self.num_experts})"
            )
        for name, value, param in (
            ("w1", w1, self.w1),
            ("b1", b1, self.b1),
            ("w2", w2, self.w2),
            ("b2", b2, self.b2),
        ):
            value = np.asarray(value, dtype=np.float32)
            expected = param.data.shape[1:]
            if value.shape != expected:
                raise ValueError(
                    f"expert {expert} {name}: expected shape "
                    f"{expected}, got {value.shape}"
                )
            param.data[expert] = value

    def run_grouped(
        self, rows: Tensor, segment_counts: np.ndarray
    ) -> Tensor:
        """Production path: flat rows sorted by expert, (N, M) -> (N, M).

        ``rows`` holds every routed token row, contiguous per expert
        (``segment_counts[e]`` rows for expert e, summing to N) — the
        sort-permutation form :func:`~repro.moe.dispatch.dispatch_grouped`
        produces.  One :func:`~repro.nn.fused.expert_ffn` node runs
        each occupied expert's segment through fc1, its bias, the ReLU,
        fc2 and its bias, and saves only the rows and the post-ReLU
        hidden; its backward works segment by segment, so neither a
        pre-ReLU hidden nor an (N, H) gradient ever exists.  It is the
        bits of the per-segment chain: a 2-d GEMM per segment plus its
        bias row, a ReLU, and again for fc2.  No (E, C, M) buffer exists
        at any point, and an expert with an empty segment costs nothing.
        """
        counts = np.asarray(segment_counts)
        if rows.ndim != 2 or rows.shape[1] != self.model_dim:
            raise ValueError(
                f"expected (N, {self.model_dim}) rows, got {rows.shape}"
            )
        if counts.shape != (self.num_experts,):
            raise ValueError(
                f"segment_counts must be ({self.num_experts},), "
                f"got {counts.shape}"
            )
        return expert_ffn(rows, self.w1, self.b1, self.w2, self.b2, counts)
