"""Elastic recovery: detect → adopt → re-instantiate → rebalance.

The graceful-degradation layer (PR 5) answers "a worker died, keep
stepping" by capacity-dropping the dead worker's experts with gate
renormalization — correct, but permanent: the model then trains with
fewer experts forever.  This module closes the loop with the recovery
state machine the ROADMAP names:

1. **detect** — a worker is declared dead
   (:meth:`~repro.moe.parallel.ExpertParallelGroup.set_dead_workers`,
   usually driven by a :class:`~repro.faults.FaultPlan` scenario);
2. **adopt** — survivors take over the lost experts with a minimal-move
   placement rebalance
   (:meth:`~repro.moe.placement.ExpertPlacement.with_workers_removed`,
   version bumped);
3. **re-instantiate** — the lost experts' parameters are restored on
   their new hosts, either exactly from the last crash-safe checkpoint
   or by *seeded re-init* (documented semantics: expert ``e`` is drawn
   from ``np.random.default_rng((reinit_seed, placement_version, e))``
   exactly as the :class:`~repro.moe.experts.Experts` constructor
   draws one expert — fc1 xavier, fc2 xavier, zero biases — so every
   replay of the same recovery produces identical parameters);
4. **renorm removal** — the dead-worker set is cleared, so gating
   returns to the full expert count with no renormalization: the
   recovered group's forward is bit-identical to a freshly constructed
   group with the same placement and parameters.

Scale-up is the same machinery pointed the other way
(:meth:`RecoveryController.scale_up` /
:meth:`~repro.moe.parallel.ExpertParallelGroup.admit_worker`): a new
worker is admitted mid-run and receives its fair share of experts with
the minimal move set.

Every transition is priced through the *timing* substrate: the expert
slices that must move are counted in bytes
(:func:`~repro.moe.placement.reshard_traffic`) and converted to
simulated seconds by :func:`price_reshard` on a healthy cluster.
Whether to recover at all is a question of model quality, not of step
time: :mod:`repro.systems.recovery` runs the kill → recover → scale-up
scenario, prices its re-shards, and measures the perplexity that
degraded, restored and re-initialized training reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..moe.placement import (
    expert_param_bytes,
    reshard_moves,
    reshard_traffic,
)
from ..nn.serialization import load_checkpoint

__all__ = [
    "RecoveryController",
    "RecoveryEvent",
    "price_reshard",
]


@dataclass(frozen=True)
class RecoveryEvent:
    """One completed recovery or scale-up transition (the audit record)."""

    kind: str  # "recover" | "scale-up"
    dead_workers: Tuple[int, ...]
    adopted_experts: Tuple[int, ...]
    moves: Tuple[Tuple[int, int, int], ...]  # (expert, src, dst)
    old_version: int
    new_version: int
    source: str  # "checkpoint" | "reinit" | "move"
    reshard_total_bytes: int
    reshard_per_gpu_bytes: int


def price_reshard(spec, per_gpu_bytes: Union[int, float]) -> float:
    """Simulated seconds to move ``per_gpu_bytes`` of expert slices.

    The re-shard exchange is all-to-all-shaped (several workers send
    expert slices to several others at once), so it is priced as one
    Pipe-A2A of the busiest endpoint's payload
    (``reshard_traffic(...)["per_gpu_bytes"]``) — a conservative bound,
    since the real exchange is sparser.
    """
    per_gpu_bytes = float(per_gpu_bytes)
    if per_gpu_bytes < 0:
        raise ValueError(
            f"per_gpu_bytes must be >= 0, got {per_gpu_bytes}"
        )
    if per_gpu_bytes == 0:
        return 0.0
    from ..collectives import get_a2a, measure_a2a

    result = measure_a2a(get_a2a("pipe"), spec, per_gpu_bytes)
    if result.oom:
        raise MemoryError(
            f"re-shard A2A of {per_gpu_bytes:.3e} B/GPU does not fit "
            f"on the cluster (peak {result.peak_bytes_per_gpu:.3e} B)"
        )
    return result.seconds


class RecoveryController:
    """Drives a live :class:`ExpertParallelGroup` through recovery.

    ``checkpoint`` (optional) is an archive of the group's own layer,
    written by :func:`repro.nn.serialization.save_checkpoint`; when
    given, lost experts are restored *exactly* from it (the training
    loss picks up where the checkpoint left those experts).  It is read
    with :func:`~repro.nn.serialization.load_checkpoint` and must hold
    exactly the live layer's parameter names and shapes; a missing or
    mismatched archive raises before any group state changes.  Without
    one, lost experts are seeded-re-initialized — deterministic (see
    the module docstring) but fresh, so those experts restart learning.

    The controller remembers every worker it has retired, so repeated
    failures never rebalance experts back onto a dead rank, and each
    transition appends a :class:`RecoveryEvent` to :attr:`events`.
    """

    def __init__(
        self,
        group,
        checkpoint: Optional[Union[str, Path]] = None,
        reinit_seed: int = 0,
    ):
        self.group = group
        self.checkpoint = None if checkpoint is None else Path(checkpoint)
        self.reinit_seed = int(reinit_seed)
        self.retired: frozenset = frozenset()
        self.events: List[RecoveryEvent] = []

    # -- helpers -----------------------------------------------------------
    def _bytes_per_expert(self) -> int:
        experts = self.group.layer.experts
        return expert_param_bytes(experts.model_dim, experts.hidden_dim)

    def _checkpoint_state(self) -> Dict[str, np.ndarray]:
        """The checkpoint's arrays, checked against the live layer."""
        state = load_checkpoint(self.checkpoint)
        live = {
            name: p.data.shape
            for name, p in self.group.layer.named_parameters()
        }
        stored = {name: value.shape for name, value in state.items()}
        if stored != live:
            reshaped = [
                n for n in sorted(live.keys() & stored.keys())
                if live[n] != stored[n]
            ]
            raise ValueError(
                f"checkpoint {self.checkpoint} does not match the live "
                f"layer: missing {sorted(live.keys() - stored.keys())}, "
                f"unexpected {sorted(stored.keys() - live.keys())}, "
                f"reshaped {reshaped}"
            )
        return state

    def _restore_experts(
        self, lost: Tuple[int, ...], new_version: int
    ) -> str:
        experts = self.group.layer.experts
        if self.checkpoint is not None:
            state = self._checkpoint_state()
            for e in lost:
                experts.load_expert_slice(
                    e,
                    state["experts.w1"][e],
                    state["experts.b1"][e],
                    state["experts.w2"][e],
                    state["experts.b2"][e],
                )
            return "checkpoint"
        for e in lost:
            # Seeded re-init: deterministic in (seed, version, expert),
            # independent of recovery order and of how many experts
            # were lost together.
            rng = np.random.default_rng(
                (self.reinit_seed, new_version, e)
            )
            experts.reinit_expert(e, rng)
        return "reinit"

    # -- transitions -------------------------------------------------------
    def recover(self) -> RecoveryEvent:
        """Adopt + re-instantiate the dead workers' experts on survivors.

        Recovers the group's declared dead set (the usual flow:
        ``group.set_dead_workers({w})`` on detection, possibly some
        degraded steps, then ``recover()``).  Afterwards the group is
        healthy again: full expert count, no gate renormalization,
        placement version bumped — and its forward is bit-identical to
        a freshly built group with the same placement and parameters.
        """
        group = self.group
        dead = group.dead_workers
        if not dead:
            raise ValueError(
                "no dead workers to recover from: declare them via "
                "group.set_dead_workers(...)"
            )
        old = group.placement
        lost = tuple(
            sorted(e for w in dead for e in old.experts_of(w))
        )
        # Never rebalance onto a previously retired rank either.
        new = old.with_workers_removed(dead | self.retired)
        moves = reshard_moves(old, new)
        source = self._restore_experts(lost, new.version)
        group.set_placement(new)
        group.set_dead_workers(())  # renorm removal: full expert count
        self.retired |= dead
        traffic = reshard_traffic(
            moves, self._bytes_per_expert(), new.num_workers
        )
        event = RecoveryEvent(
            kind="recover",
            dead_workers=tuple(sorted(dead)),
            adopted_experts=lost,
            moves=moves,
            old_version=old.version,
            new_version=new.version,
            source=source,
            reshard_total_bytes=traffic["total_bytes"],
            reshard_per_gpu_bytes=traffic["per_gpu_bytes"],
        )
        self.events.append(event)
        return event

    def scale_up(self) -> RecoveryEvent:
        """Admit a new worker and move its fair share of experts to it.

        The group must be healthy (recover first:
        :meth:`~repro.moe.parallel.ExpertParallelGroup.admit_worker`
        raises otherwise); the new rank is ``group.num_workers`` before
        the call.  Parameters never change — expert slices only *move*
        (the shared bank makes that a no-op single-process; the byte
        cost of the real movement is in the returned event).
        """
        group = self.group
        old = group.placement
        new = group.admit_worker()
        moves = reshard_moves(old, new)
        traffic = reshard_traffic(
            moves, self._bytes_per_expert(), new.num_workers
        )
        event = RecoveryEvent(
            kind="scale-up",
            dead_workers=(),
            adopted_experts=tuple(e for e, _, _ in moves),
            moves=moves,
            old_version=old.version,
            new_version=new.version,
            source="move",
            reshard_total_bytes=traffic["total_bytes"],
            reshard_per_gpu_bytes=traffic["per_gpu_bytes"],
        )
        self.events.append(event)
        return event
