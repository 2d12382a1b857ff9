"""The ready-deque engine processes entries in the heap-only order.

:class:`~repro.cluster.engine.Engine` merges a same-time ready deque
with its timed heap; ``legacy_engine.py`` keeps the loop that queued
everything on one heap.  Both must fire the same callbacks in the same
order at the same simulated times: fault injection hashes a global
attempt index and resources grant in FIFO order, so any reordering of
same-time entries shows up in simulated results.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.engine import Engine, Resource, SimulationError

from .legacy_engine import LegacyEngine

DELAYS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0])
OPS = st.one_of(
    st.tuples(st.just("timeout"), DELAYS),
    st.tuples(st.just("hold"), st.integers(0, 1), DELAYS),
    st.tuples(st.just("all_of"), st.lists(DELAYS, max_size=3)),
    st.tuples(st.just("join"), st.integers(0, 15)),
    st.tuples(st.just("signal"), st.integers(0, 2)),
    st.tuples(st.just("wait"), st.integers(0, 2)),
    st.tuples(st.just("spawn"), DELAYS),
)
BATCH = st.lists(st.lists(OPS, max_size=6), min_size=1, max_size=6)


def _traced(base):
    """``base`` logging every queued entry and every callback it runs."""

    class Traced(base):
        def __init__(self):
            super().__init__()
            self.log = []
            self.queued = 0

        def _schedule_at(self, when, event):
            self.log.append(("at", self.now, when, self.queued))
            self.queued += 1
            super()._schedule_at(when, event)

        def _schedule_callback(self, cb, ev):
            n = self.queued
            self.queued += 1
            name = cb.__qualname__

            def run_cb(arg):
                self.log.append(("cb", self.now, n, name))
                cb(arg)

            super()._schedule_callback(run_cb, ev)

    return Traced


def _simulate(engine_cls, first, second):
    """Run ``first`` to the end; then add ``second`` and run to the
    end.  Returns everything observable."""
    eng = _traced(engine_cls)()
    resources = [Resource(eng, "r0"), Resource(eng, "r1", capacity=2)]
    signals = [eng.event(f"sig{i}") for i in range(3)]
    procs = []

    def body(pid, ops):
        for k, op in enumerate(ops):
            kind = op[0]
            if kind == "timeout":
                yield eng.timeout(op[1])
            elif kind == "hold":
                with (yield from resources[op[1]].acquire()):
                    yield eng.timeout(op[2])
            elif kind == "all_of":
                yield eng.all_of([eng.timeout(d) for d in op[1]])
            elif kind == "join":
                # Joining oneself (or a cycle) deadlocks: both engines
                # must then report the same blocked processes.
                yield procs[op[1] % len(procs)]
            elif kind == "signal":
                if not signals[op[1]].fired:
                    signals[op[1]].succeed(pid)
            elif kind == "wait":
                yield signals[op[1]]
            else:
                start([("timeout", op[1])])
            eng.log.append(("op", eng.now, pid, k))
        return pid

    def start(ops):
        procs.append(eng.process(body(len(procs), ops), name=f"p{len(procs)}"))

    outcome = []
    for batch in (first, second):
        for ops in batch:
            start(ops)
        try:
            outcome.append(eng.run())
        except SimulationError as exc:  # a deadlock: compare its report
            outcome.append(f"{type(exc).__name__}: {exc}")
            break
    values = [p.value if p.fired else None for p in procs]
    return eng.log, outcome, values, eng.now, eng.queued


@settings(max_examples=300, deadline=None)
@given(first=BATCH, second=BATCH)
def test_engine_matches_heap_only_order(first, second):
    new = _simulate(Engine, first, second)
    old = _simulate(LegacyEngine, first, second)
    assert new == old


def test_timed_entry_due_now_runs_before_later_callbacks():
    """Two timeouts due at t=1: the second fires before the first's
    callback runs, because it was queued earlier."""
    for engine_cls in (Engine, LegacyEngine):
        eng = engine_cls()
        a, b = eng.timeout(1.0), eng.timeout(1.0)
        seen = []
        a.add_callback(lambda _ev: seen.append(b.fired))
        eng.run()
        assert seen == [True], engine_cls.__name__


def test_zero_delay_timeout_runs_after_queued_callbacks():
    """A zero-delay timeout queued behind a callback fires after it."""
    for engine_cls in (Engine, LegacyEngine):
        eng = engine_cls()
        seen = []
        ev = eng.event()
        ev.succeed()
        ev.add_callback(lambda _ev: seen.append(timeout.fired))
        timeout = eng.timeout(0.0)
        eng.run()
        assert seen == [False], engine_cls.__name__
