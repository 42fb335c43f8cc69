"""Event primitives for the simulation kernel.

Events are ordered by ``(time, priority, sequence)``.  The sequence
number is a monotonically increasing tie-breaker, which makes event
dispatch fully deterministic: two events scheduled for the same cycle
at the same priority always fire in scheduling order.

This module holds the :class:`Event` object, the free-list pooling
machinery, and the simulator's event queue (:class:`EventQueue`, a
single binary heap).

Three implementation choices keep the queue fast on the simulator's
hot path (entered once per dispatched event):

* Heap entries are ``(time, priority, seq, event)`` tuples, so
  ``heapq`` sibling comparisons run through the C tuple fast path
  instead of calling :meth:`Event.__lt__` for every swap.
* Cancellation is *lazy* (events are flagged and skipped when they
  surface), but the queue counts cancelled shells and compacts when
  they outnumber the live entries, bounding both memory and the
  pop-side skip work under cancel-heavy workloads.
* Dispatched :class:`Event` objects are recycled through a free list
  (:class:`EventPoolMixin`) instead of being garbage collected, so a
  steady-state run allocates almost no event objects.  Recycling is
  guarded by a reference-count check: an event whose reference escaped
  to user code (e.g. a caller keeping the handle to ``cancel()`` it
  later) is simply left to the garbage collector, which keeps the
  documented "``cancel()`` after dispatch is a no-op" contract safe.
"""

from __future__ import annotations

import heapq
from sys import getrefcount
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError

#: Heap size below which compaction is never attempted (a rebuild of a
#: tiny heap costs more in constant factors than the shells it frees).
_COMPACT_MIN_HEAP = 64

#: Upper bound on pooled (recycled) events per queue; beyond this the
#: garbage collector takes over.  Bounds worst-case retained memory
#: after a burst of in-flight events.
_POOL_CAP = 4096


class Event:
    """A single scheduled callback.

    Attributes:
        time: Absolute cycle at which the event fires.
        priority: Lower values fire first within the same cycle.
            Components use priorities to model intra-cycle ordering
            (e.g. regulators replenish *before* ports retry).
        seq: Deterministic tie-breaker assigned by the queue.
        callback: Zero-argument callable invoked at dispatch.
        cancelled: When True the event is skipped at dispatch time.
        daemon: Daemon events (periodic background activity such as
            DRAM refresh or OS ticks) do not keep a simulation run
            alive: when only daemons remain, the run is considered
            drained.
    """

    __slots__ = ("time", "priority", "seq", "callback", "cancelled", "daemon", "_queue")

    def __init__(
        self,
        time: int,
        priority: int,
        seq: int,
        callback: Callable[[], Any],
        daemon: bool = False,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.daemon = daemon
        self._queue: Optional["EventPoolMixin"] = None

    def cancel(self) -> None:
        """Mark the event so it is ignored when popped.

        Cancellation is routed back to the owning queue so its live
        event accounting stays exact: a run whose only remaining
        foreground events are cancelled shells is treated as drained
        immediately, not when the shells happen to be popped.
        """
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            queue._on_cancel(self)

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.seq) < (
            other.time,
            other.priority,
            other.seq,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time}, prio={self.priority}, seq={self.seq}, {state})"


def _measure_recycle_refs() -> int:
    """Reference count seen by :meth:`EventPoolMixin.recycle` for an
    event that nothing else references.

    Measured once at import instead of hard-coded, because the exact
    count (caller's local + callee parameter + ``getrefcount``'s own
    argument) is an implementation detail of the interpreter.
    """
    seen: List[int] = []

    class _Probe:
        def recycle(self, event: Event) -> None:
            seen.append(getrefcount(event))

    def _dispatch_site(queue: "_Probe") -> None:
        event = Event(0, 0, 0, None)
        queue.recycle(event)

    _dispatch_site(_Probe())
    return seen[0]


_RECYCLE_REFS = _measure_recycle_refs()


class EventPoolMixin:
    """Free-list :class:`Event` recycling for the event queue.

    ``_acquire`` replaces ``Event(...)`` on the push path; ``recycle``
    is called by the simulator after an event's callback has run.  An
    event is only pooled when the dispatch loop holds the *sole*
    remaining reference (checked via the interpreter's reference
    count), so user code that retained the handle -- to inspect it or
    call ``cancel()`` late -- can never observe its event object being
    reincarnated as a different scheduled callback.
    """

    _pool: List[Event]
    # Telemetry (cold-path only: the pool-hit branch of ``_acquire``
    # and the successful-recycle path run once per event and stay
    # untouched).  Class-level zeros; incremented as instance attrs.
    _pool_allocations = 0
    _recycle_leaks = 0

    # repro: hot -- pool fast path, once per push
    def _acquire(
        self,
        time: int,
        priority: int,
        seq: int,
        callback: Callable[[], Any],
        daemon: bool,
    ) -> Event:
        pool = self._pool
        if pool:
            event = pool.pop()
            event.time = time
            event.priority = priority
            event.seq = seq
            event.callback = callback
            event.cancelled = False
            event.daemon = daemon
        else:
            event = Event(time, priority, seq, callback, daemon=daemon)
            self._pool_allocations += 1
        event._queue = self
        return event

    # repro: hot -- once per dispatched event
    def recycle(self, event: Event) -> None:
        """Return a dispatched event to the free list (if safe).

        Safe means: no reference beyond the dispatch loop's own
        survives, so the object cannot be reached -- let alone
        cancelled -- by stale user code after reuse.
        """
        if getrefcount(event) != _RECYCLE_REFS:
            self._recycle_leaks += 1
            return
        event.callback = None  # release the closure promptly
        event.cancelled = False
        event._queue = None
        pool = self._pool
        if len(pool) < _POOL_CAP:
            pool.append(event)

    def _on_cancel(self, event: Event) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class EventQueue(EventPoolMixin):
    """The simulator's event queue: one deterministic binary heap."""

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, int, Event]] = []
        self._next_seq = 0
        self._live_foreground = 0
        self._cancelled_in_heap = 0
        self._pool = []
        self._compactions = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def live_foreground(self) -> int:
        """Pending non-daemon, non-cancelled events (exact count:
        cancellation via :meth:`Event.cancel` is accounted the moment
        it happens, not when the shell is popped)."""
        return self._live_foreground

    @property
    def cancelled_pending(self) -> int:
        """Cancelled shells still occupying heap slots."""
        return self._cancelled_in_heap

    # repro: hot
    def push(
        self,
        time: int,
        priority: int,
        callback: Callable[[], Any],
        daemon: bool = False,
    ) -> Event:
        """Create and enqueue an event; returns it so it can be cancelled."""
        seq = self._next_seq
        self._next_seq = seq + 1
        event = self._acquire(time, priority, seq, callback, daemon)
        heapq.heappush(self._heap, (time, priority, seq, event))
        if not daemon:
            self._live_foreground += 1
        return event

    # ------------------------------------------------------------------
    # cancellation bookkeeping
    # ------------------------------------------------------------------
    def _on_cancel(self, event: Event) -> None:
        """Account a cancellation of an event still in the heap."""
        if not event.daemon:
            self._live_foreground -= 1
        self._cancelled_in_heap += 1
        if (
            len(self._heap) >= _COMPACT_MIN_HEAP
            and self._cancelled_in_heap * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled shells and re-heapify the survivors.

        Runs when shells hold the majority of the heap; amortized cost
        is O(1) per cancellation because each compaction at least
        halves the heap.
        """
        self._heap = [entry for entry in self._heap if not entry[3].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0
        self._compactions += 1

    def _detach(self, event: Event) -> Event:
        """Release a popped event from queue bookkeeping."""
        if not event.daemon:
            self._live_foreground -= 1
        # A late cancel() on an already-dispatched event must not touch
        # the counters of events still queued.
        event._queue = None
        return event

    # ------------------------------------------------------------------
    # removal
    # ------------------------------------------------------------------
    # repro: hot
    def pop(self) -> Event:
        """Remove and return the earliest non-cancelled event.

        Raises:
            SimulationError: if the queue holds no live events.
        """
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[3]
            if event.cancelled:
                self._cancelled_in_heap -= 1
                continue
            return self._detach(event)
        raise SimulationError("pop() on an empty event queue")

    # repro: hot
    def pop_if_at(self, time: int) -> Optional[Event]:
        """Pop the next live event only if it fires at ``time``.

        The same-cycle fast path of :meth:`Simulator.run`: one heap
        inspection both answers "is there more work this cycle?" and
        delivers the event, instead of a ``peek_time`` purge scan
        followed by a ``pop`` re-scan.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[3].cancelled:
                heapq.heappop(heap)
                self._cancelled_in_heap -= 1
                continue
            if entry[0] != time:
                return None
            heapq.heappop(heap)
            return self._detach(entry[3])
        return None

    # repro: hot
    def peek_time(self) -> Optional[int]:
        """Return the firing time of the next live event, or None."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
            self._cancelled_in_heap -= 1
        if not heap:
            return None
        return heap[0][0]

    def clear(self) -> None:
        for entry in self._heap:
            entry[3]._queue = None
        self._heap.clear()
        self._live_foreground = 0
        self._cancelled_in_heap = 0

    def stats(self) -> dict:
        """Pull-style queue statistics (cold-path counters + state).

        The hot push/pop loops carry no instrumentation; derived
        figures (pool reuses) come from subtracting the cold-path
        allocation count from the total scheduled count.
        """
        return {
            "backend": "heap",
            "pending": len(self._heap),
            "live_foreground": self._live_foreground,
            "cancelled_pending": self._cancelled_in_heap,
            "events_scheduled": self._next_seq,
            "pool_allocations": self._pool_allocations,
            "pool_reuses": self._next_seq - self._pool_allocations,
            "pool_size": len(self._pool),
            "recycle_leaks": self._recycle_leaks,
            "compactions": self._compactions,
        }
