"""Discrete-event simulation engine.

A small, deterministic, generator-based event engine in the style of
SimPy, purpose-built for simulating GPU clusters: processes model CUDA
streams and collective algorithms, resources model exclusive hardware
(a compute engine, a link, a NIC).

The engine is deterministic: entries queued for the same timestamp are
processed in FIFO order of scheduling, so repeated runs of the same
simulation produce identical traces.  Timed events wait on a heap;
callbacks, which are always due at the current time, wait on a FIFO
ready deque that :meth:`Engine.run` merges with the heap in exactly
``(time, seq)`` order (see :class:`Engine`).

Example
-------
>>> eng = Engine()
>>> link = Resource(eng, name="nic")
>>> def sender(eng, link, results):
...     with (yield from link.acquire()):
...         yield eng.timeout(2.0)
...     results.append(eng.now)
>>> out = []
>>> eng.process(sender(eng, link, out))
<Process ...>
>>> eng.process(sender(eng, link, out))
<Process ...>
>>> eng.run()
>>> out
[2.0, 4.0]
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Generator,
    Iterable,
    List,
    Optional,
)


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an invalid state."""


class Event:
    """A one-shot occurrence processes can wait on.

    An event starts pending; :meth:`succeed` fires it, after which all
    registered callbacks run at the current simulation time.  Waiting on
    an already-fired event resumes the waiter immediately (at the same
    timestamp, via the event queue, preserving determinism).
    """

    __slots__ = ("engine", "_name", "fired", "value", "_callbacks")

    def __init__(self, engine: "Engine", name: str = ""):
        self.engine = engine
        self._name = name
        self.fired = False
        self.value: Any = None
        self._callbacks: List[Callable[["Event"], None]] = []

    @property
    def name(self) -> str:
        """Label for diagnostics (deadlock reports, errors)."""
        return self._name

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event, scheduling all callbacks at the current time."""
        if self.fired:
            raise SimulationError(f"event {self.name!r} fired twice")
        self.fired = True
        self.value = value
        callbacks = self._callbacks
        if callbacks:
            schedule = self.engine._schedule_callback
            for cb in callbacks:
                schedule(cb, self)
            callbacks.clear()
        return self

    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Run ``cb(event)`` when the event fires (immediately if fired)."""
        if self.fired:
            self.engine._schedule_callback(cb, self)
        else:
            self._callbacks.append(cb)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self.fired else "pending"
        return f"<{type(self).__name__} {self.name!r} {state}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, name: str = ""):
        # ``not >=`` also rejects NaN, which would turn the clock into
        # NaN; ``inf`` stays a valid delay.
        if not delay >= 0:
            raise ValueError(f"negative or NaN timeout: {delay}")
        super().__init__(engine, name)
        self.delay = delay
        engine._schedule_at(engine.now + delay, self)

    @property
    def name(self) -> str:
        """The given label, else ``timeout(<delay>)`` (formatted on demand)."""
        return self._name or f"timeout({self.delay:g})"


class AllOf(Event):
    """Fires once every child event has fired."""

    __slots__ = ("_pending", "_children")

    def __init__(self, engine: "Engine", events: Iterable[Event], name: str = ""):
        super().__init__(engine, name or "all_of")
        events = list(events)
        child_fired = self._child_fired
        pending = 0
        for ev in events:
            if not ev.fired:
                pending += 1
                ev._callbacks.append(child_fired)
        self._pending = pending
        if pending == 0:
            self.succeed([ev.value for ev in events])
        else:
            self._children = events

    def _child_fired(self, _ev: Event) -> None:
        self._pending -= 1
        if self._pending == 0 and not self.fired:
            self.succeed([ev.value for ev in self._children])


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A coroutine driven by the engine.

    The wrapped generator yields :class:`Event` objects; the process is
    resumed with the event's value once the event fires.  The process
    itself is an event that fires (with the generator's return value)
    when the generator finishes, so processes can wait on each other.
    """

    __slots__ = ("_gen", "waiting_on")

    def __init__(self, engine: "Engine", gen: ProcessGenerator, name: str = ""):
        super().__init__(engine, name or getattr(gen, "__name__", "process"))
        self._gen = gen
        #: The event this process is currently blocked on (deadlock
        #: diagnostics); ``None`` while runnable or finished.
        self.waiting_on: Optional[Event] = None
        engine._live_processes[self] = None
        engine._schedule_callback(self._resume, _START)

    def _resume(self, ev: Event) -> None:
        self.waiting_on = None
        try:
            # ``_START.value`` is None: the first send starts the generator.
            target = self._gen.send(ev.value)
        except StopIteration as stop:
            del self.engine._live_processes[self]
            self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, expected an Event"
            )
        self.waiting_on = target
        target.add_callback(self._resume)


class _Sentinel(Event):
    __slots__ = ()

    def __init__(self):  # noqa: D401 - internal marker, no engine attached
        self.fired = True
        self.value = None


_START = _Sentinel()


def _fire(event: Event) -> None:
    """Queue action of a timed event: fire it unless already fired."""
    if not event.fired:
        event.succeed()


class Engine:
    """The event loop: a timed heap merged with a same-time ready deque.

    Every queued entry has a unique, increasing ``seq`` and is processed
    in ``(time, seq)`` order, so ``seq`` breaks every same-time tie in
    scheduling order.  Entries reach the queue through exactly two
    methods:

    * :meth:`_schedule_at` pushes a timed event as ``(time, seq, _fire,
      event)`` onto the heap;
    * :meth:`_schedule_callback` appends ``(seq, callback, event)`` to
      the ready deque.  A callback is always due *now*, so the deque is
      FIFO in ``seq`` and needs no heap.

    :meth:`run` takes the heap top before the deque head only when the
    heap top is due now and has the smaller ``seq`` (a timed event
    scheduled earlier that lands on the current time, zero-delay
    timeouts included); otherwise it drains the deque, and it advances
    the clock only once the deque is empty.  Processing an entry calls
    ``fn(arg)``: :func:`_fire` with a timed event, or a callback with
    the event that triggered it.
    """

    def __init__(self):
        self.now: float = 0.0
        self._queue: list = []
        self._ready: Deque[tuple] = deque()
        self._seq = itertools.count()
        #: Unfinished processes in creation order (an insertion-ordered
        #: dict: a finishing process leaves it in O(1)).
        self._live_processes: Dict["Process", None] = {}

    # -- scheduling ---------------------------------------------------
    def _schedule_at(self, when: float, event: Event) -> None:
        heapq.heappush(self._queue, (when, next(self._seq), _fire, event))

    def _schedule_callback(self, cb: Callable[[Event], None], ev: Event) -> None:
        self._ready.append((next(self._seq), cb, ev))

    # -- public api ---------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh pending event."""
        return Event(self, name)

    def timeout(self, delay: float, name: str = "") -> Timeout:
        """An event that fires ``delay`` simulated seconds from now."""
        return Timeout(self, delay, name)

    def process(self, gen: ProcessGenerator, name: str = "") -> Process:
        """Launch a generator as a simulated process."""
        return Process(self, gen, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """An event firing when all of ``events`` have fired."""
        return AllOf(self, events)

    def run(self) -> float:
        """Drain the event queue; returns the final simulation time.

        Raises :class:`SimulationError` when the queue drains while
        processes are still blocked on events nobody can fire anymore —
        a deadlock.  The message names the blocked processes and what
        each is waiting on.
        """
        now = self.now
        queue = self._queue
        ready = self._ready
        popleft = ready.popleft
        heappop = heapq.heappop
        while True:
            if ready:
                # Every ready entry is due now; a heap entry goes first
                # only if it is due now too and was queued earlier.
                if not (queue and queue[0][0] <= now and queue[0][1] < ready[0][0]):
                    _seq, fn, arg = popleft()
                    fn(arg)
                    continue
            elif not queue:
                break
            when = queue[0][0]
            if when < now:
                raise SimulationError("time went backwards")
            _when, _seq, fn, arg = heappop(queue)
            self.now = now = when
            fn(arg)
        if self._live_processes:
            raise SimulationError(self._deadlock_message())
        return now

    def _deadlock_message(self, limit: int = 8) -> str:
        blocked = list(self._live_processes)
        lines = [
            f"deadlock at t={self.now:g}s: event queue drained with "
            f"{len(blocked)} process(es) still blocked on unfired events:"
        ]
        for proc in blocked[:limit]:
            waiting = proc.waiting_on
            what = (
                f"{type(waiting).__name__} {waiting.name!r}"
                if waiting is not None
                else "nothing (never started)"
            )
            lines.append(f"  - process {proc.name!r} waiting on {what}")
        if len(blocked) > limit:
            lines.append(f"  ... and {len(blocked) - limit} more")
        return "\n".join(lines)


class Resource:
    """An exclusive-use resource with a FIFO wait queue.

    Models hardware that serializes work: a GPU's compute engine, a
    PCIe fabric, a NIC.  ``capacity`` > 1 models resources that admit a
    fixed number of concurrent users.
    """

    def __init__(self, engine: Engine, name: str = "", capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.name = name
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        self._request_name = f"req:{name}"

    def request(self) -> Event:
        """An event firing when a slot is granted (caller must release)."""
        ev = Event(self.engine, self._request_name)
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed(self)
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Free a slot, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiters:
            ev = self._waiters.popleft()
            ev.succeed(self)
        else:
            self._in_use -= 1

    def acquire(self) -> ProcessGenerator:
        """``yield from``-able acquisition returning a context manager.

        Usage inside a process::

            with (yield from resource.acquire()):
                yield engine.timeout(dt)
        """
        yield self.request()
        return _Held(self)


class _Held:
    """Context manager releasing a resource slot on exit."""

    def __init__(self, resource: Resource):
        self._resource = resource

    def __enter__(self) -> Resource:
        return self._resource

    def __exit__(self, *exc: Any) -> None:
        self._resource.release()
