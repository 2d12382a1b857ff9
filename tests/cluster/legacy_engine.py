"""The heap-only event loop, kept as a test reference.

The production :class:`~repro.cluster.engine.Engine` keeps entries due
at the current time in a FIFO ready deque and merges it with its timed
heap.  This engine queues every entry, callbacks included, as a
``(time, seq, fn, arg)`` tuple on one heap and pops it in that order —
the loop the ready deque replaced.  The parity suite checks that both
fire the same callbacks in the same order at the same times.
"""

import heapq

from repro.cluster.engine import Engine, SimulationError


class LegacyEngine(Engine):
    """An :class:`Engine` processing every entry from one heap."""

    def _schedule_callback(self, cb, ev):
        heapq.heappush(self._queue, (self.now, next(self._seq), cb, ev))

    def run(self) -> float:
        queue = self._queue
        heappop = heapq.heappop
        while queue:
            when, _seq, fn, arg = heappop(queue)
            if when < self.now:
                raise SimulationError("time went backwards")
            self.now = when
            fn(arg)
        if self._live_processes:
            raise SimulationError(self._deadlock_message())
        return self.now
