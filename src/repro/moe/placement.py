"""Expert placement: a versioned, possibly-unequal expert→worker map.

Historically :class:`~repro.moe.parallel.ExpertParallelGroup` hard-coded
``owner(e) = e // (E // P)`` — a contiguous, equal-shard
layout baked in at construction.  That arithmetic makes elastic
behaviour impossible: a dead worker's experts cannot move to survivors,
and a newly admitted worker cannot take over shards.  FastMoE's dynamic
expert shadowing and FoMoE's federation framing (PAPERS.md) both treat
the expert-to-worker map as a *runtime knob*; this module makes it one.

An :class:`ExpertPlacement` is an immutable assignment of every expert
to one worker, plus a monotonically increasing ``version`` so
recovery events and in-flight consumers can tell stale maps from
current ones.  Shards may be unequal — worker loads after a
failure are ``ceil``/``floor`` mixes — and a worker may own zero
experts (a just-admitted scale-up target before rebalancing).

Rebalancing is deterministic and minimal-move:

* :meth:`ExpertPlacement.with_workers_removed` reassigns only the lost
  experts, least-loaded-survivor-first — surviving experts never move;
* :meth:`ExpertPlacement.with_worker_added` moves exactly
  ``num_experts // (num_workers + 1)`` experts onto the new worker,
  each taken from the currently most-loaded worker — no
  survivor-to-survivor churn.

:func:`reshard_moves` diffs two placements into the expert moves a
re-shard must perform, and :func:`reshard_traffic` prices them in bytes
(the quantity :func:`repro.collectives.measure_a2a` converts into
simulated seconds — see :mod:`repro.faults.recovery`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

__all__ = [
    "ExpertPlacement",
    "checked_ids",
    "expert_param_bytes",
    "reshard_moves",
    "reshard_traffic",
]


def checked_ids(ids: Iterable, bound: int, what: str) -> Tuple[int, ...]:
    """``ids`` as Python ints in ``[0, bound)``, in their given order.

    The one check of every expert and worker id the MoE package takes
    from a caller.  An id must be an integer in the sense of
    :func:`operator.index`: Python and numpy integers pass, while a
    float raises ``TypeError`` instead of truncating to another id.
    """
    out = []
    for i in ids:
        try:
            value = operator.index(i)
        except TypeError:
            raise TypeError(
                f"{what} id must be an integer, got {i!r}"
            ) from None
        if not 0 <= value < bound:
            raise ValueError(f"{what} {value} out of range [0, {bound})")
        out.append(value)
    return tuple(out)


@dataclass(frozen=True)
class ExpertPlacement:
    """An immutable, versioned expert→worker assignment.

    ``owners[e]`` is the worker hosting expert ``e``.  Every expert is
    owned by exactly one worker; workers may own unequal counts (or
    nothing).  ``version`` increments on every rebalancing step so
    consumers can detect staleness; it carries no other meaning.
    """

    num_experts: int
    num_workers: int
    owners: Tuple[int, ...]
    version: int = 0

    def __post_init__(self) -> None:
        if self.num_experts < 1:
            raise ValueError(
                f"num_experts must be >= 1, got {self.num_experts}"
            )
        if self.num_workers < 1:
            raise ValueError(
                f"num_workers must be >= 1, got {self.num_workers}"
            )
        # Tolerate lists and arrays.
        owners = checked_ids(self.owners, self.num_workers, "owner")
        object.__setattr__(self, "owners", owners)
        if len(owners) != self.num_experts:
            raise ValueError(
                f"owners must assign all {self.num_experts} experts, "
                f"got {len(owners)} entries"
            )
        if self.version < 0:
            raise ValueError(f"version must be >= 0, got {self.version}")

    # -- constructors ------------------------------------------------------
    @classmethod
    def contiguous(
        cls, num_experts: int, num_workers: int, version: int = 0
    ) -> "ExpertPlacement":
        """The historical equal contiguous layout: ``e // (E // P)``.

        Requires divisibility, exactly as the pre-placement
        :class:`ExpertParallelGroup` constructor did.
        """
        if num_workers < 1 or num_experts % num_workers != 0:
            raise ValueError(
                f"num_experts {num_experts} must be divisible by "
                f"num_workers {num_workers}"
            )
        per = num_experts // num_workers
        return cls(
            num_experts=num_experts,
            num_workers=num_workers,
            owners=tuple(e // per for e in range(num_experts)),
            version=version,
        )

    # -- views -------------------------------------------------------------
    @property
    def owner_array(self) -> np.ndarray:
        """The assignment as an ``(E,)`` int64 vector (cached)."""
        cached = self.__dict__.get("_owner_array")
        if cached is None:
            cached = np.asarray(self.owners, dtype=np.int64)
            cached.setflags(write=False)
            self.__dict__["_owner_array"] = cached
        return cached

    def experts_of(self, worker: int) -> Tuple[int, ...]:
        """Experts hosted by ``worker``, in ascending global id order.

        Ascending order is load-bearing: it is the local segment order
        of every per-worker expert-major buffer (D1 assembly, grouped
        execution), so contiguous placements reproduce the historical
        ``range(w * epw, (w + 1) * epw)`` layout bit-for-bit.
        """
        if not 0 <= worker < self.num_workers:
            raise IndexError(
                f"worker {worker} out of range [0, {self.num_workers})"
            )
        return tuple(
            e for e, w in enumerate(self.owners) if w == worker
        )

    def counts(self) -> Tuple[int, ...]:
        """Per-worker expert counts, indexed by worker id."""
        loads = [0] * self.num_workers
        for w in self.owners:
            loads[w] += 1
        return tuple(loads)

    def bump(self) -> "ExpertPlacement":
        """The same assignment with ``version + 1``."""
        return replace(self, version=self.version + 1)

    # -- rebalancing -------------------------------------------------------
    def with_workers_removed(
        self, dead_workers: Iterable[int]
    ) -> "ExpertPlacement":
        """Survivors adopt the dead workers' experts; version bumps.

        Deterministic and minimal-move: surviving experts stay put;
        each lost expert (ascending id) goes to the survivor currently
        hosting the fewest experts (ties broken by lowest worker id).
        The worker count is unchanged — dead workers simply own
        nothing afterwards, so the same rank numbering keeps working
        and a later scale-up can re-admit a fresh rank.
        """
        dead = frozenset(
            checked_ids(dead_workers, self.num_workers, "dead worker")
        )
        survivors = [
            w for w in range(self.num_workers) if w not in dead
        ]
        if not survivors:
            raise ValueError(
                "all workers removed; at least one survivor must "
                "remain to adopt the experts"
            )
        if not dead:
            return self.bump()
        loads = {w: 0 for w in survivors}
        for w in self.owners:
            if w in loads:
                loads[w] += 1
        owners = list(self.owners)
        for e, w in enumerate(self.owners):
            if w not in dead:
                continue
            target = min(survivors, key=lambda s: (loads[s], s))
            owners[e] = target
            loads[target] += 1
        return ExpertPlacement(
            num_experts=self.num_experts,
            num_workers=self.num_workers,
            owners=tuple(owners),
            version=self.version + 1,
        )

    def with_worker_added(self) -> "ExpertPlacement":
        """Admit worker ``num_workers`` and rebalance minimally.

        The new worker receives its fair share —
        ``num_experts // (num_workers + 1)`` experts — and nothing
        else moves: each moved expert is the highest-id expert of the
        currently most-loaded worker (ties broken by lowest worker
        id), so the move list is exactly the fair share, never a full
        reshuffle.  Version bumps.
        """
        new_worker = self.num_workers
        share = self.num_experts // (self.num_workers + 1)
        loads = list(self.counts()) + [0]
        by_worker: List[List[int]] = [[] for _ in range(new_worker + 1)]
        for e, w in enumerate(self.owners):
            by_worker[w].append(e)  # ascending by construction
        owners = list(self.owners)
        for _ in range(share):
            donor = max(
                range(new_worker), key=lambda w: (loads[w], -w)
            )
            if loads[donor] == 0:
                break
            moved = by_worker[donor].pop()
            owners[moved] = new_worker
            loads[donor] -= 1
            loads[new_worker] += 1
        return ExpertPlacement(
            num_experts=self.num_experts,
            num_workers=self.num_workers + 1,
            owners=tuple(owners),
            version=self.version + 1,
        )


# --------------------------------------------------------------------------
# Re-shard accounting
# --------------------------------------------------------------------------


def expert_param_bytes(model_dim: int, hidden_dim: int) -> int:
    """Bytes of one expert's FFN parameters in the stacked bank.

    ``w1 (M, H) + b1 (H,) + w2 (H, M) + b2 (M,)`` in float32 — what
    moving one expert slice between workers costs on the wire.
    """
    return 4 * (
        model_dim * hidden_dim + hidden_dim
        + hidden_dim * model_dim + model_dim
    )


def reshard_moves(
    old: ExpertPlacement, new: ExpertPlacement
) -> Tuple[Tuple[int, int, int], ...]:
    """The ``(expert, src, dst)`` moves turning ``old`` into ``new``.

    Ascending expert order.  A move whose source worker is dead is
    still listed with its old owner — the *recovery controller* decides
    whether the bytes come from a survivor-held checkpoint instead
    (see :mod:`repro.faults.recovery`).
    """
    if old.num_experts != new.num_experts:
        raise ValueError(
            f"placements disagree on num_experts: {old.num_experts} "
            f"vs {new.num_experts}"
        )
    return tuple(
        (e, old.owners[e], new.owners[e])
        for e in range(old.num_experts)
        if old.owners[e] != new.owners[e]
    )


def reshard_traffic(
    moves: Sequence[Tuple[int, int, int]],
    bytes_per_expert: int,
    num_workers: int,
) -> Dict[str, int]:
    """Byte accounting of a re-shard's expert-slice moves.

    Returns ``total_bytes`` (all slices crossing workers) and
    ``per_gpu_bytes`` — the busiest endpoint's bytes, sent or received,
    which is the per-GPU payload an all-to-all-shaped exchange must
    carry and therefore what :func:`repro.collectives.measure_a2a`
    prices (a conservative bound: the real exchange is sparser than a
    full A2A of that size).
    """
    sent = [0] * num_workers
    recv = [0] * num_workers
    for _, src, dst in moves:
        if src == dst:
            continue
        sent[src] += bytes_per_expert
        recv[dst] += bytes_per_expert
    return {
        "total_bytes": sum(sent),
        "per_gpu_bytes": max(max(sent, default=0), max(recv, default=0)),
    }
