"""The task model of the ScheMoE scheduling framework (paper Section 4).

One MoE layer pass decomposes into seven task types —
C1 A1 D1 E C2 A2 D2 (first compression, first all-to-all, first
decompression, expert computation, second compression, second
all-to-all, second decompression) — and partitioning the input into
``r`` equal chunks yields ``7 r`` tasks (paper Eq. 3) whose only
dependencies are the per-chunk chain of Eqs. (4)-(9).

A1/A2 are communication tasks, everything else computes; the resource
assumption (paper Section 4.1) is that two tasks of the same class
never run concurrently while a computing and a communication task may.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


class TaskKind(enum.Enum):
    """The seven task types of one MoE layer pass."""

    C1 = "compress-1"
    A1 = "a2a-1"
    D1 = "decompress-1"
    E = "expert"
    C2 = "compress-2"
    A2 = "a2a-2"
    D2 = "decompress-2"

    @property
    def is_comm(self) -> bool:
        """Communication tasks occupy the network, not the GPU."""
        return self in (TaskKind.A1, TaskKind.A2)


#: The per-chunk dependency chain of paper Eqs. (4)-(9).
CHAIN: Tuple[TaskKind, ...] = (
    TaskKind.C1,
    TaskKind.A1,
    TaskKind.D1,
    TaskKind.E,
    TaskKind.C2,
    TaskKind.A2,
    TaskKind.D2,
)

_PREDECESSOR: Dict[TaskKind, Optional[TaskKind]] = {
    kind: (CHAIN[i - 1] if i > 0 else None) for i, kind in enumerate(CHAIN)
}


@dataclass(frozen=True, order=True)
class Task:
    """One sub-task: a task type applied to chunk ``chunk`` (0-based)."""

    kind: TaskKind
    chunk: int

    @property
    def is_comm(self) -> bool:
        return self.kind.is_comm

    def predecessor(self) -> Optional["Task"]:
        """The immediately preceding task of the same chunk (or None)."""
        prev = _PREDECESSOR[self.kind]
        if prev is None:
            return None
        return Task(prev, self.chunk)

    def __repr__(self) -> str:
        return f"{self.kind.name}^{self.chunk + 1}"


def make_tasks(partitions: int) -> List[Task]:
    """All ``7 r`` tasks of one layer pass (paper Eq. 3)."""
    if partitions < 1:
        raise ValueError(f"partitions must be >= 1, got {partitions}")
    return [
        Task(kind, chunk)
        for chunk in range(partitions)
        for kind in CHAIN
    ]


@dataclass(frozen=True)
class TaskDurations:
    """Per-chunk elapsed time of each task type, in seconds.

    The paper assumes uniform partitioning, so durations depend on the
    task type only (first and second instances of the same type cost
    the same — Section 4.1).
    """

    compress: float
    a2a: float
    decompress: float
    expert: float

    def __post_init__(self) -> None:
        for field_name in ("compress", "a2a", "decompress", "expert"):
            if not getattr(self, field_name) >= 0:  # NaN fails too
                raise ValueError(f"{field_name} duration must be >= 0")

    def of(self, kind: TaskKind) -> float:
        """Duration of one chunk of ``kind``."""
        if kind in (TaskKind.C1, TaskKind.C2):
            return self.compress
        if kind in (TaskKind.A1, TaskKind.A2):
            return self.a2a
        if kind in (TaskKind.D1, TaskKind.D2):
            return self.decompress
        return self.expert

    def total_sequential(self, partitions: int) -> float:
        """Paper Eq. 10: no-overlap execution time of all 7r tasks."""
        per_chunk = (
            2 * self.compress + 2 * self.a2a + 2 * self.decompress + self.expert
        )
        return per_chunk * partitions

    def comm_total(self, partitions: int) -> float:
        """Total communication time across chunks."""
        return 2 * self.a2a * partitions

    def comp_total(self, partitions: int) -> float:
        """Total computing time across chunks."""
        return (
            2 * self.compress + 2 * self.decompress + self.expert
        ) * partitions

    def backward(self, expert_factor: float) -> "TaskDurations":
        """Durations of the reversed (backward) pass.

        The paper notes the data dependency simply reverses during
        backpropagation; structurally the chain is again C-A-D-E-C-A-D
        with gradients flowing the other way, so the same scheduling
        problem applies with (a) compress and decompress swapping
        roles (where an activation was compressed, its gradient is
        decompressed) and (b) the expert costing ``expert_factor`` x
        forward (dgrad + wgrad;
        :data:`~repro.core.system.BACKWARD_EXPERT_FACTOR`).
        """
        return TaskDurations(
            compress=self.decompress,
            a2a=self.a2a,
            decompress=self.compress,
            expert=self.expert * expert_factor,
        )
