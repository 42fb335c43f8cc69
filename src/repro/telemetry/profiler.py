"""Wall-clock phase profiler for the event kernel.

:class:`PhaseProfiler` attaches to a :class:`~repro.sim.kernel.Simulator`
and attributes *host* wall-clock time plus dispatched-event counts to
the component handler that consumed them.  The attribution key is
derived from the event callback: ``ClassName.method`` for bound
methods (``DramController._service``, ``MasterPort._retry`` ...),
the qualified name for plain functions.

The kernel has one dispatch loop with a single profiler hook: when a
profiler is attached, :meth:`Simulator.run` brackets every callback
with two ``perf_counter`` reads and reports it through
:meth:`PhaseProfiler.observe`.  Detached runs pay one test of a local
for ``None`` per event, and profiled runs pay a constant per event --
small against real handler work, which is what keeps measured
overhead within the subsystem's budget on experiment workloads.

Typical use::

    profiler = PhaseProfiler()
    with profiler.attach_to(platform.sim):
        platform.run(max_cycles)
    print(profiler.format_table())

or in one call for a whole experiment config::

    result, profiler = profile_experiment(config)
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator
    from repro.soc.experiment import PlatformResult
    from repro.soc.platform import PlatformConfig


def callback_key(callback: Callable[[], object]) -> str:
    """Attribution key for an event callback.

    Bound methods become ``ClassName.method`` -- the component
    granularity the profile table groups by.  Anything else falls
    back to its qualified (or repr) name.
    """
    owner = getattr(callback, "__self__", None)
    if owner is not None:
        return f"{type(owner).__name__}.{getattr(callback, '__name__', '?')}"
    return getattr(callback, "__qualname__", None) or repr(callback)


class PhaseProfiler:
    """Accumulates per-handler dispatch counts and wall-clock seconds.

    Args:
        clock: Monotonic float-seconds clock (injectable for tests).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: key -> [dispatch count, total seconds]
        self.records: Dict[str, List[float]] = {}
        #: Wall-clock seconds spent inside profiled run() calls.
        self.wall_seconds = 0.0
        #: Total events dispatched under this profiler.
        self.events = 0

    # ------------------------------------------------------------------
    # collection (called from the kernel's dispatch loop)
    # ------------------------------------------------------------------
    def observe(self, callback: Callable[[], object], elapsed: float) -> None:
        """Fold one dispatched callback into the profile."""
        key = callback_key(callback)
        record = self.records.get(key)
        if record is None:
            record = self.records[key] = [0, 0.0]
        record[0] += 1
        record[1] += elapsed
        self.events += 1

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------
    def attach(self, sim: "Simulator") -> None:
        """Profile ``sim``'s future run() calls."""
        if sim._profiler is not None and sim._profiler is not self:
            raise ConfigError("simulator already has a profiler attached")
        sim._profiler = self

    def detach(self, sim: "Simulator") -> None:
        """Stop profiling ``sim``."""
        if sim._profiler is self:
            sim._profiler = None

    @contextmanager
    def attach_to(self, sim: "Simulator") -> Iterator["PhaseProfiler"]:
        """Scope attachment to a ``with`` block."""
        self.attach(sim)
        try:
            yield self
        finally:
            self.detach(sim)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def rows(self) -> List[Tuple[str, int, float]]:
        """``(key, events, seconds)`` rows sorted by time, descending."""
        return sorted(
            ((key, int(n), s) for key, (n, s) in self.records.items()),
            key=lambda row: row[2],
            reverse=True,
        )

    def format_table(self, limit: Optional[int] = None) -> str:
        """The sorted attribution table as aligned text.

        Columns: handler, events dispatched, total milliseconds, share
        of profiled time, mean microseconds per event.
        """
        rows = self.rows()
        if limit is not None:
            rows = rows[:limit]
        total = sum(s for _, _, s in self.rows()) or 1e-12
        key_width = max([len(k) for k, _, _ in rows] + [len("handler")])
        lines = [
            f"{'handler':<{key_width}}  {'events':>10}  {'time_ms':>10}  "
            f"{'share':>6}  {'us/event':>9}"
        ]
        for key, events, seconds in rows:
            mean_us = seconds / events * 1e6 if events else 0.0
            lines.append(
                f"{key:<{key_width}}  {events:>10}  {seconds * 1e3:>10.2f}  "
                f"{seconds / total:>6.1%}  {mean_us:>9.2f}"
            )
        lines.append(
            f"{'TOTAL':<{key_width}}  {self.events:>10}  "
            f"{self.wall_seconds * 1e3:>10.2f}"
        )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable profile snapshot."""
        return {
            "wall_seconds": self.wall_seconds,
            "events": self.events,
            "handlers": [
                {"handler": key, "events": events, "seconds": seconds}
                for key, events, seconds in self.rows()
            ],
        }


def profile_experiment(
    config: "PlatformConfig",
    max_cycles: Optional[int] = None,
    stop_when_critical_done: bool = True,
) -> Tuple["PlatformResult", PhaseProfiler]:
    """Run one experiment under a fresh profiler.

    Returns the usual :class:`~repro.soc.experiment.PlatformResult`
    plus the populated :class:`PhaseProfiler`.
    """
    from repro.soc.experiment import DEFAULT_MAX_CYCLES, PlatformResult
    from repro.soc.platform import Platform

    if max_cycles is None:
        max_cycles = DEFAULT_MAX_CYCLES
    platform = Platform(config)
    profiler = PhaseProfiler()
    with profiler.attach_to(platform.sim):
        elapsed = platform.run(
            max_cycles, stop_when_critical_done=stop_when_critical_done
        )
    return PlatformResult(platform, elapsed), profiler
