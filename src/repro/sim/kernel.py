"""The discrete-event simulation kernel.

The :class:`Simulator` advances an integer cycle counter by dispatching
events in deterministic order.  Components never busy-wait: anything
that has to happen later schedules a callback.  This keeps the cost of
a simulated cycle proportional to the activity in it, which is what
makes million-cycle SoC runs practical in pure Python.

Intra-cycle ordering is expressed with event priorities; the kernel
reserves a small set of well-known levels in :class:`Phase` so that,
within one cycle, regulators replenish before masters retry, masters
present requests before the interconnect arbitrates, and statistics
snapshots run last.

The event queue is one binary heap (:class:`repro.sim.event.EventQueue`)
and :meth:`Simulator.run` is the one dispatch loop: peek the next
cycle, pop its first event, then drain the rest of that cycle with
single-scan ``pop_if_at`` calls.  Between cycles the clock jumps
straight to the next scheduled event; empty cycles are never visited.
An attached :class:`repro.telemetry.profiler.PhaseProfiler` is fed
from the same loop: each callback is bracketed with two clock reads
only when a profiler is present, so a detached run pays one test of a
local for ``None`` per event.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.checks.sanitize import SanitizingQueue, sanitize_enabled
from repro.errors import SimulationError
from repro.sim.event import Event, EventQueue

class Phase:
    """Well-known intra-cycle dispatch phases (lower fires first)."""

    REGULATOR = 0  #: window replenish / budget updates
    MASTER = 10  #: traffic generators present new requests
    ARBITER = 20  #: interconnect picks among pending requests
    MEMORY = 30  #: DRAM controller scheduling and completions
    RESPONSE = 40  #: responses delivered back to masters
    MONITOR = 50  #: bandwidth/latency sampling
    CONTROL = 60  #: QoS manager actions (register writes landing)
    STATS = 90  #: end-of-cycle bookkeeping


class Simulator:
    """Deterministic event-driven simulator with an integer cycle clock.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.schedule(5, lambda: fired.append(sim.now))
        >>> sim.run()
        >>> fired
        [5]
    """

    def __init__(self) -> None:
        self._queue: Any = EventQueue()
        if sanitize_enabled():
            # Debugging build: every queue operation runs through the
            # invariant assertions of repro.checks.sanitize.  Dispatch
            # order (and therefore every result) is unchanged.
            self._queue = SanitizingQueue(self._queue)
        self._now = 0
        self._running = False
        self._finished = False
        self._stop_requested = False
        #: Components that want a ``finalize(now)`` call at the end of a run.
        self._finalizers: List[Callable[[int], None]] = []
        #: Free-form registry so components can find each other by name.
        self.registry: Dict[str, Any] = {}
        #: Total events dispatched by this simulator (run() and step()).
        #: Accumulated from a loop-local counter at run exit, so the
        #: per-event dispatch cost is one local integer add.
        self.events_dispatched = 0
        #: Attached :class:`repro.telemetry.profiler.PhaseProfiler`
        #: (None = callbacks run without clock reads).
        self._profiler: Optional[Any] = None

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in reference-clock cycles."""
        return self._now

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: int,
        callback: Callable[[], Any],
        priority: int = Phase.MASTER,
        daemon: bool = False,
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` cycles from now.

        Args:
            delay: Non-negative number of cycles from the current time.
            callback: Zero-argument callable.
            priority: Intra-cycle phase (see :class:`Phase`).
            daemon: Daemon events (self-rescheduling background
                activity like DRAM refresh) do not keep the run alive.

        Returns:
            The :class:`Event`, which the caller may ``cancel()``.

        Raises:
            SimulationError: if ``delay`` is negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} cycles in the past")
        return self._queue.push(self._now + delay, priority, callback, daemon=daemon)

    def schedule_at(
        self,
        time: int,
        callback: Callable[[], Any],
        priority: int = Phase.MASTER,
        daemon: bool = False,
    ) -> Event:
        """Schedule ``callback`` at an absolute cycle ``time >= now``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at cycle {time}, current time is {self._now}"
            )
        return self._queue.push(time, priority, callback, daemon=daemon)

    def add_finalizer(self, fn: Callable[[int], None]) -> None:
        """Register ``fn(now)`` to be invoked when a run completes."""
        self._finalizers.append(fn)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    # repro: hot -- the dispatch loop, once per event
    def run(self, until: Optional[int] = None) -> int:
        """Dispatch events until the queue drains or ``until`` is reached.

        Args:
            until: Optional absolute cycle bound (inclusive).  Events
                scheduled after ``until`` remain queued; the clock is
                left at ``until`` so a subsequent ``run()`` continues.

        Returns:
            The simulation time when the run stopped.
        """
        if self._running:
            raise SimulationError("run() re-entered from within an event callback")
        self._running = True
        self._stop_requested = False
        queue = self._queue
        # Pre-bound references keep the per-event loop free of
        # repeated attribute lookups (this loop runs once per
        # dispatched event -- millions of times per experiment).
        peek_time = queue.peek_time
        pop = queue.pop
        pop_if_at = queue.pop_if_at
        recycle = queue.recycle
        profiler = self._profiler
        if profiler is not None:
            clock = profiler.clock
            observe = profiler.observe
            wall_start = clock()
        dispatched = 0
        try:
            while True:
                if self._stop_requested:
                    break
                next_time = peek_time()
                if next_time is None or queue.live_foreground == 0:
                    # Drained: nothing left, or only daemon events
                    # (background refresh/ticks) remain.
                    if until is not None and until > self._now:
                        self._now = until
                    break
                if until is not None and next_time > until:
                    self._now = until
                    break
                event = pop()
                self._now = next_time
                # Dispatch this cycle: the first event, then the rest
                # with single-scan pops, skipping the redundant
                # peek/horizon checks (the horizon can only be crossed
                # when time advances).
                while True:
                    if profiler is None:
                        event.callback()
                    else:
                        callback = event.callback
                        start = clock()
                        callback()
                        observe(callback, clock() - start)
                    recycle(event)
                    dispatched += 1
                    if self._stop_requested or queue.live_foreground == 0:
                        break
                    event = pop_if_at(next_time)
                    if event is None:
                        break
        finally:
            self._running = False
            self.events_dispatched += dispatched
            if profiler is not None:
                profiler.wall_seconds += clock() - wall_start
        for fn in self._finalizers:
            fn(self._now)
        self._finished = True
        return self._now

    def kernel_stats(self) -> Dict[str, Any]:
        """Snapshot of kernel and queue telemetry (pull-style).

        Combines the simulator's dispatch count with the event queue's
        cold-path counters (see ``EventQueue.stats``); collecting it
        costs nothing until called, so it is always available --
        ``REPRO_TELEMETRY`` gates only the push-style registry, not
        this.

        ``dispatch_mode`` is always ``"event"`` and the
        ``auto_promotions`` / ``batch_promotions`` counters are always
        0: the kernel has one queue and one dispatch loop, and the keys
        stay because the ``perfbench`` harness reports them.
        """
        stats: Dict[str, Any] = {
            "dispatch_mode": "event",
            "now": self._now,
            "events_dispatched": self.events_dispatched,
            "auto_promotions": 0,
            "batch_promotions": 0,
        }
        stats.update(self._queue.stats())
        return stats

    def request_stop(self) -> None:
        """Ask a running :meth:`run` to return after the current event.

        Used by experiment harnesses to end a run as soon as the
        masters under measurement finish their work, instead of
        simulating background traffic to the horizon.
        """
        self._stop_requested = True

    # repro: hot
    def step(self) -> Optional[int]:
        """Dispatch exactly one event; returns its time or None if idle.

        Consistent with :meth:`run`: when only daemon events
        (background refresh/ticks) remain, the simulation counts as
        drained and ``step()`` returns ``None`` instead of ticking
        daemons forever.
        """
        queue = self._queue
        if queue.live_foreground == 0 or queue.peek_time() is None:
            return None
        event = queue.pop()
        time = event.time
        self._now = time
        event.callback()
        queue.recycle(event)
        self.events_dispatched += 1
        return time

    @property
    def pending_events(self) -> int:
        """Number of events still queued (cancelled shells count until
        the queue compacts or pops them)."""
        return len(self._queue)
