"""A reusable pool of numpy buffers for the pipelined dispatch path.

The chunked expert-parallel executor moves one flat ``(n, M)`` payload
per (source, destination, chunk) triple through each all-to-all — with
``r`` chunks over ``P`` workers that is up to ``2 r P^2`` short-lived
arrays per forward pass.  Allocating them fresh every chunk churns the
allocator on exactly the path we are trying to overlap; the real
system (like any NCCL-based A2A) reuses pinned staging buffers
instead.  :class:`BufferPool` is that staging area: ``acquire`` hands
out a cached array of the requested shape/dtype when one is free and
allocates otherwise, ``release`` returns it for reuse.

The pool is thread-safe — the overlap executor acquires from the
communication stream while the computing stream releases buffers it
has drained — and deliberately dumb: exact (shape, dtype) matching,
bounded per-key free list, no zeroing (callers always overwrite the
full buffer via ``np.copyto``-style writes before reading).

:class:`Arena` layers a *step-scoped* discipline on top: every buffer
it hands out stays checked out until :meth:`Arena.reset`, which
returns the whole working set to the pool in one shot.  That is the
allocation pattern of a forward-only inference step — all of one
step's intermediates are simultaneously "in flight" until the step's
output is produced, then the entire set can be recycled for the next
step (see ``repro.nn.tensor.inference_mode``).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["Arena", "BufferPool"]


class BufferPool:
    """Thread-safe free-list of numpy arrays keyed by (shape, dtype).

    ``max_per_key`` bounds how many idle buffers of one shape are
    retained; extra releases drop the array back to the allocator so a
    pathological shape mix cannot grow the pool without bound.
    ``None`` retains every released buffer, for callers whose working
    set is already bounded (an :class:`Arena`'s own pool).

    The pool keeps running counters — ``hits`` / ``misses`` (acquires
    served from the free list vs. fresh allocations), ``bytes_held``
    (bytes sitting idle in the free lists right now) and
    ``bytes_allocated`` (total bytes the pool has ever allocated on
    misses) — exposed as a :meth:`stats` snapshot so benchmarks and
    tests can assert reuse instead of guessing at it: a steady-state
    inference loop should stop accumulating misses after its first
    step.

    ``checked_out`` counts buffers handed out and not yet released
    (acquires minus releases, a release past ``max_per_key`` that drops
    its buffer included).  Unlike the free-list counters it does not
    depend on how concurrent acquires and releases interleave, so it
    is the count to assert a leak-free pass on.
    """

    def __init__(self, max_per_key: Optional[int] = 16):
        if max_per_key is not None and max_per_key < 1:
            raise ValueError(f"max_per_key must be >= 1, got {max_per_key}")
        self.max_per_key = max_per_key
        self._free: Dict[Tuple[tuple, np.dtype], List[np.ndarray]] = {}
        self._lock = threading.Lock()
        #: Buffers served from the free list / fresh allocations.
        self.hits = 0
        self.misses = 0
        #: Acquires minus releases (dropped releases included).
        self.checked_out = 0
        self._bytes_held = 0
        self._bytes_allocated = 0

    def _key(self, shape, dtype) -> Tuple[tuple, np.dtype]:
        return (tuple(int(s) for s in shape), np.dtype(dtype))

    def acquire(self, shape, dtype=np.float32) -> np.ndarray:
        """A writable array of exactly ``shape``/``dtype`` (uninitialized)."""
        key = self._key(shape, dtype)
        nbytes = int(np.prod(key[0], dtype=np.int64)) * key[1].itemsize
        with self._lock:
            self.checked_out += 1
            free = self._free.get(key)
            if free:
                self.hits += 1
                self._bytes_held -= nbytes
                return free.pop()
            self.misses += 1
            self._bytes_allocated += nbytes
        return np.empty(key[0], dtype=key[1])

    def take_copy(self, array: np.ndarray) -> np.ndarray:
        """A pooled buffer holding a copy of ``array`` — the A2A handoff.

        This is the memcpy into the staging buffer: the caller keeps no
        obligation to ``array`` afterwards, and the returned buffer goes
        back via :meth:`release` once the receiver has drained it.
        """
        buf = self.acquire(array.shape, array.dtype)
        np.copyto(buf, array)
        return buf

    def release(self, array: np.ndarray) -> None:
        """Return a buffer for reuse.  Only pass arrays you own.

        The pool only ever hands out freshly allocated, writable,
        C-contiguous arrays that own their data — and it only takes
        such arrays back.  Accepting anything else would let a later
        :meth:`acquire` hand out a buffer that aliases live caller
        data (a view) or that ``np.copyto``-style staging writes
        cannot fill (read-only, or strided so the flat copy is wrong).
        """
        if not isinstance(array, np.ndarray):
            raise TypeError(
                f"release() takes a numpy array, got {type(array).__name__}"
            )
        if array.base is not None:
            raise ValueError(
                "refusing to pool a view: a later acquire would hand "
                "out a buffer aliasing the view's base array"
            )
        if not array.flags.writeable:
            raise ValueError("refusing to pool a read-only array")
        if not array.flags.c_contiguous:
            raise ValueError(
                "refusing to pool a non-C-contiguous array: staged "
                "copies assume the pool's own contiguous layout"
            )
        key = self._key(array.shape, array.dtype)
        with self._lock:
            self.checked_out -= 1
            free = self._free.setdefault(key, [])
            if self.max_per_key is None or len(free) < self.max_per_key:
                free.append(array)
                self._bytes_held += array.nbytes

    def idle_buffers(self) -> int:
        """Buffers currently sitting in the free lists (for tests)."""
        with self._lock:
            return sum(len(v) for v in self._free.values())

    @property
    def bytes_held(self) -> int:
        """Bytes sitting idle in the free lists right now."""
        with self._lock:
            return self._bytes_held

    @property
    def bytes_allocated(self) -> int:
        """Total bytes ever allocated by cache misses."""
        with self._lock:
            return self._bytes_allocated

    def stats(self) -> Dict[str, int]:
        """Consistent snapshot of the pool's counters.

        Keys: ``hits``, ``misses``, ``bytes_held``, ``bytes_allocated``,
        ``idle_buffers``, ``keys``.  Taken under the pool lock so the
        numbers are mutually consistent even while other threads
        acquire/release.
        """
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "bytes_held": self._bytes_held,
                "bytes_allocated": self._bytes_allocated,
                "idle_buffers": sum(len(v) for v in self._free.values()),
                "keys": len(self._free),
            }


class Arena:
    """Step-scoped scratch allocator over a :class:`BufferPool`.

    :meth:`empty` / :meth:`zeros` acquire from the pool and record the
    buffer as *live*; nothing is recycled until :meth:`reset` returns
    the whole working set at once.  Within one step every buffer is
    therefore exclusively owned by whoever asked for it — no aliasing
    analysis needed — while across steps the same shapes are served
    from the free list, so a steady-state forward performs zero large
    allocations.

    The contract callers must respect: arrays handed out by an arena
    (including any tensor *outputs* built on them) are valid only
    until the next :meth:`reset`.  Copy anything that must outlive the
    step.  ``empty``/``zeros`` may be called from multiple threads (the
    overlap executor's two streams); ``reset`` must only run between
    steps, when no thread is allocating.

    Without a ``pool`` the arena builds its own uncapped one: the
    buffers :meth:`reset` returns are exactly one step's working set,
    all of which the next step asks for again, so a per-shape cap would
    only turn the excess of a deep model's repeated shapes into fresh
    allocations every step.
    """

    def __init__(self, pool: Optional[BufferPool] = None):
        self.pool = pool if pool is not None else BufferPool(max_per_key=None)
        self._live: List[np.ndarray] = []

    def empty(self, shape, dtype=np.float32) -> np.ndarray:
        """An uninitialized pooled array, checked out until :meth:`reset`."""
        buf = self.pool.acquire(shape, dtype)
        self._live.append(buf)
        return buf

    def zeros(self, shape, dtype=np.float32) -> np.ndarray:
        """A zero-filled pooled array, checked out until :meth:`reset`."""
        buf = self.empty(shape, dtype)
        buf.fill(0)
        return buf

    @property
    def live_buffers(self) -> int:
        """Buffers handed out since the last :meth:`reset`."""
        return len(self._live)

    def reset(self) -> None:
        """Return every live buffer to the pool (start of a new step)."""
        live, self._live = self._live, []
        for buf in live:
            self.pool.release(buf)

    def stats(self) -> Dict[str, int]:
        """The pool's :meth:`BufferPool.stats` plus the live count."""
        snapshot = self.pool.stats()
        snapshot["live_buffers"] = len(self._live)
        return snapshot
