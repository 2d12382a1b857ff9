"""Seeded, deterministic fault injection for both substrates.

ScheMoE's evaluation assumes a healthy cluster, but its headline
mechanisms — OptSche's provably-optimal ordering and Pipe-A2A's
intra/inter overlap — are exactly what degrades first under
stragglers, flapping links and failed ranks.  This module gives the
reproduction a way to ask "what happens then":

* a :class:`FaultPlan` is a pure-literal description of the faults to
  inject — straggler GPUs (a constant compute slowdown for the whole
  run), degraded or flapping links (a bandwidth cut in the alpha-beta
  model over simulated-time windows), and transient transfer failures
  that trigger retry with exponential backoff — fully reproducible
  from its ``seed``;
* a :class:`FaultInjector` is the per-:class:`~repro.cluster.topology.
  SimCluster` runtime that answers "how long does this kernel/transfer
  actually take, starting now?" — a straggler's kernels stretch by its
  factor, a transfer drains piecewise across the link's fault windows
  — and draws transient-failure decisions from a counter-indexed hash
  of the seed (no wall clock, no global RNG state), so the same plan
  produces byte-identical simulations.

The numerical substrate consumes the companion degradation hooks
directly (:meth:`repro.moe.gating.GateOutput.with_experts_dropped`,
``MoELayer.set_dead_experts``, ``ExpertParallelGroup.set_dead_workers``,
``repro.training.AnomalyGuard``); this module owns the *timing* side.

An empty plan is guaranteed to leave every code path bit-identical to
the fault-free simulator: :class:`~repro.cluster.topology.SimCluster`
skips injector construction entirely when ``FaultPlan.is_empty()``.

Degrading is only half a fault story.  The companion submodule
:mod:`repro.faults.recovery` closes the loop — detect a dead worker,
re-shard its experts onto survivors (placement swap + parameter
re-instantiation from checkpoint or seeded re-init) and price the
re-shard all-to-all through the timing substrate — so a run returns
to full expert count instead of training degraded forever.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..cluster.costmodel import LinkModel
from ..cluster.engine import SimulationError

#: Link classes a link fault can target.
LINK_KINDS = ("fabric", "nic")


class FaultError(SimulationError):
    """Raised when a fault cannot be degraded around (e.g. a transfer
    exhausts its transient-retry budget)."""


@dataclass(frozen=True)
class StragglerFault:
    """One GPU computing ``slowdown``x slower for the whole run.

    Models a thermally throttled / contended / misbehaving device: all
    kernels on ``rank``'s compute stream take ``slowdown`` times their
    healthy duration.  Several stragglers on one rank multiply.
    """

    rank: int
    slowdown: float

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")
        if self.slowdown < 1.0:
            raise ValueError(
                f"slowdown must be >= 1 (1 = healthy), got {self.slowdown}"
            )


@dataclass(frozen=True)
class LinkFault:
    """A degraded link: a bandwidth cut inside a time window.

    ``link`` selects the resource class — ``"nic"`` degrades the
    node's inter-node egress, ``"fabric"`` its intra-node fabric (both
    the pairwise and bulk paths; the fault is the wire, not the
    protocol).  ``node=-1`` applies to every node.  Flapping links are
    expressed as several short windows (:func:`flapping_link`).
    """

    node: int
    link: str
    bandwidth_factor: float = 1.0
    start_s: float = 0.0
    end_s: float = math.inf

    def __post_init__(self) -> None:
        if self.node < -1:
            raise ValueError(f"node must be >= -1, got {self.node}")
        if self.link not in LINK_KINDS:
            raise ValueError(
                f"link must be one of {LINK_KINDS}, got {self.link!r}"
            )
        if not 0.0 < self.bandwidth_factor <= 1.0:
            raise ValueError(
                "bandwidth_factor must be in (0, 1], got "
                f"{self.bandwidth_factor}"
            )
        _check_window(self.start_s, self.end_s)


@dataclass(frozen=True)
class TransientFaults:
    """Seeded random per-message transfer failures with retry/backoff.

    Every transfer attempt, over any link class and at any time, fails
    independently with ``probability``; a failed attempt still occupies
    its link for the full transfer duration (the bytes moved, then the
    CRC said no), after which the sender backs off
    :meth:`backoff_delay` simulated seconds (exponential in the attempt
    number, saturating at :data:`BACKOFF_EXPONENT_CAP`) and
    retries.  After ``max_retries`` failed retries the transfer raises
    :class:`FaultError` — the fault is no longer transient.

    Decisions are drawn from a hash of ``(plan seed, attempt index)``
    so a plan replays identically run after run.
    """

    probability: float
    max_retries: int = 5
    backoff_s: float = 100e-6
    backoff_multiplier: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability < 1.0:
            raise ValueError(
                f"probability must be in [0, 1), got {self.probability}"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.backoff_multiplier < 1.0:
            raise ValueError(
                "backoff_multiplier must be >= 1, got "
                f"{self.backoff_multiplier}"
            )

    #: Cap on the backoff exponent: beyond this the delay saturates
    #: instead of growing.  2**30 ≈ 1e9 multiplier is already far past
    #: any plausible budget; without the cap a pathological
    #: ``max_retries`` (say 10_000) overflows float64 to ``inf`` and
    #: the simulated clock never advances past the retry loop.
    BACKOFF_EXPONENT_CAP = 30

    def backoff_delay(self, attempt: int) -> float:
        """Simulated wait before retry number ``attempt`` (0-based).

        Exponential with a saturating exponent: attempts past
        :data:`BACKOFF_EXPONENT_CAP` all wait the capped delay, so the
        delay is always finite no matter the retry budget.
        """
        exponent = min(attempt, self.BACKOFF_EXPONENT_CAP)
        return self.backoff_s * self.backoff_multiplier**exponent


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible fault scenario for one simulation.

    Pure-literal dataclasses all the way down: two plans with equal
    fields inject byte-identical fault sequences, and ``seed`` is the
    only source of (pseudo-)randomness — transient failure decisions
    hash ``(seed, attempt index)``, never wall clock or process state.
    """

    seed: int = 0
    stragglers: Tuple[StragglerFault, ...] = ()
    links: Tuple[LinkFault, ...] = ()
    transient: Optional[TransientFaults] = None

    def __post_init__(self) -> None:
        # Accept lists; store tuples.
        object.__setattr__(self, "stragglers", tuple(self.stragglers))
        object.__setattr__(self, "links", tuple(self.links))

    def is_empty(self) -> bool:
        """True when the plan injects nothing (healthy cluster)."""
        return (
            not self.stragglers and not self.links and self.transient is None
        )


def _check_window(start_s: float, end_s: float) -> None:
    if start_s < 0:
        raise ValueError(f"start_s must be >= 0, got {start_s}")
    if end_s <= start_s:
        raise ValueError(
            f"window must satisfy end_s > start_s, got [{start_s}, {end_s})"
        )


def single_straggler(rank: int, slowdown: float) -> FaultPlan:
    """The canonical one-slow-GPU scenario (the faults ablation's axis)."""
    return FaultPlan(
        stragglers=(StragglerFault(rank=rank, slowdown=slowdown),)
    )


def flapping_link(
    node: int,
    link: str,
    period_s: float,
    down_fraction: float,
    cycles: int,
    bandwidth_factor: float = 0.1,
) -> Tuple[LinkFault, ...]:
    """Degradation windows of a flapping link.

    Each of ``cycles`` periods of ``period_s`` seconds, the first
    starting at t=0, begins with a "down" phase of ``down_fraction`` of
    the period in which the link runs at ``bandwidth_factor`` of its
    bandwidth, then recovers for the rest of the period.
    """
    if period_s <= 0:
        raise ValueError(f"period_s must be positive, got {period_s}")
    if not 0.0 < down_fraction <= 1.0:
        raise ValueError(
            f"down_fraction must be in (0, 1], got {down_fraction}"
        )
    if cycles < 1:
        raise ValueError(f"cycles must be >= 1, got {cycles}")
    return tuple(
        LinkFault(
            node=node,
            link=link,
            bandwidth_factor=bandwidth_factor,
            start_s=c * period_s,
            end_s=c * period_s + down_fraction * period_s,
        )
        for c in range(cycles)
    )


# --------------------------------------------------------------------------
# Runtime
# --------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1


def _hash_uniform(seed: int, index: int) -> float:
    """Deterministic uniform in [0, 1) from (seed, index).

    A splitmix64 finalizer over the golden-ratio-spread combination —
    no RNG object, no state, so failure decisions depend only on the
    plan's seed and the attempt's position in the simulation.
    """
    x = (seed * 0x9E3779B97F4A7C15 + index + 1) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x / 2.0**64


def _piecewise_finish(
    start: float,
    work: float,
    rate_at: Callable[[float], float],
    boundaries: List[float],
) -> float:
    """Completion time of ``work`` units begun at ``start``.

    ``rate_at(t)`` is the instantaneous completion rate (units/sec),
    constant between consecutive ``boundaries`` (sorted ascending,
    finite): a transfer's bytes against its link's degraded bandwidth.
    """
    if work <= 0:
        return start
    t = start
    remaining = work
    for edge in boundaries:
        if edge <= t:
            continue
        rate = rate_at(t)
        capacity = (edge - t) * rate
        if remaining <= capacity:
            return t + remaining / rate
        remaining -= capacity
        t = edge
    rate = rate_at(t)
    if rate <= 0:
        raise FaultError(
            f"work stalls forever at t={t:.6g}s: rate dropped to zero "
            "with no later recovery window"
        )
    return t + remaining / rate


class FaultInjector:
    """Evaluates one :class:`FaultPlan` against one simulated cluster.

    Holds the per-simulation transient-attempt counter; create a fresh
    injector per :class:`~repro.cluster.topology.SimCluster` (the
    cluster does this itself) so repeated simulations of the same plan
    replay identically.
    """

    def __init__(self, plan: FaultPlan, world_size: int, num_nodes: int):
        for s in plan.stragglers:
            if s.rank >= world_size:
                raise ValueError(
                    f"straggler rank {s.rank} out of range "
                    f"[0, {world_size})"
                )
        for lf in plan.links:
            if lf.node >= num_nodes:
                raise ValueError(
                    f"link fault node {lf.node} out of range "
                    f"[0, {num_nodes})"
                )
        self.plan = plan
        self._attempts = 0
        #: Per straggling rank, the product of its slowdowns.
        self._slowdown_by_rank: Dict[int, float] = {}
        for s in plan.stragglers:
            self._slowdown_by_rank[s.rank] = (
                self._slowdown_by_rank.get(s.rank, 1.0) * s.slowdown
            )
        self._links_by_key: Dict[Tuple[str, int], List[LinkFault]] = {}
        for lf in plan.links:
            nodes = range(num_nodes) if lf.node == -1 else (lf.node,)
            for node in nodes:
                self._links_by_key.setdefault((lf.link, node), []).append(lf)

    # -- compute ----------------------------------------------------------
    def compute_finish(self, rank: int, start: float, seconds: float) -> float:
        """When a kernel of ``seconds`` healthy time, started at
        ``start`` on ``rank``, actually finishes."""
        factor = self._slowdown_by_rank.get(rank)
        if factor is None:
            return start + seconds
        # Divides by the rate 1/factor rather than multiplying by the
        # factor: the two round differently, and the fault sidecars
        # were recorded with this form.
        return start + seconds / (1.0 / factor)

    # -- links ------------------------------------------------------------
    def transfer_finish(
        self,
        kind: str,
        node: int,
        start: float,
        nbytes: float,
        link: LinkModel,
    ) -> float:
        """When a transfer of ``nbytes`` over ``link`` (class ``kind``
        on ``node``), started at ``start``, actually finishes.

        The fixed latency term is paid first; the byte drain integrates
        the bandwidth cut piecewise across windows.
        """
        faults = self._links_by_key.get((kind, node))
        if not faults:
            return start + link.transfer_time(nbytes)
        drain_start = start + link.latency_s

        def rate_at(t: float) -> float:
            factor = 1.0
            for f in faults:
                if f.start_s <= t < f.end_s:
                    factor *= f.bandwidth_factor
            return link.bandwidth_bps * factor

        return _piecewise_finish(
            drain_start, nbytes, rate_at, _edges(faults, drain_start)
        )

    # -- transient failures ----------------------------------------------
    def transfer_attempt_fails(self) -> bool:
        """Seeded verdict for the next transfer attempt."""
        t = self.plan.transient
        if t is None:
            return False
        index = self._attempts
        self._attempts += 1
        return _hash_uniform(self.plan.seed, index) < t.probability


def _edges(faults, after: float) -> List[float]:
    """Finite window edges strictly after ``after``, sorted."""
    edges = set()
    for f in faults:
        for edge in (f.start_s, f.end_s):
            if after < edge < math.inf:
                edges.add(edge)
    return sorted(edges)
