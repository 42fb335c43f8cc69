"""Host-time attribution by layer for the traced benchmark run.

The traced run charges every host second of a simulation to exactly one
layer of ``repro``: ``sim``, ``axi``, ``dram``, ``regulation``,
``traffic`` or ``telemetry``.  Time that no layer claims is reported
as ``other``.  Two kinds of span feed the split:

* **Boundary spans.**  :func:`instrument` swaps the layers' entry
  points for wrappers while one traced ``Platform.run`` executes, and
  restores them afterwards.  The program itself is not edited.
* **Callback spans.**  :class:`LayerTracer` is a
  :class:`~repro.telemetry.profiler.PhaseProfiler`, so the kernel
  brackets every event callback it dispatches and reports it through
  :meth:`LayerTracer.observe`.  The callback's time goes to the layer
  whose module defines it.  Most hot handlers are private methods and
  closures that the kernel dispatches (``DramController._schedule_pass``,
  the ``MasterPort`` retry kick), so public-method spans alone would
  charge them to ``sim``.

A span's self time is its duration minus the time of its child spans.
Self times therefore add up to the duration of the outermost span.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro import PhaseProfiler

LAYERS = ("sim", "axi", "dram", "regulation", "traffic", "telemetry")

#: Bucket for time in modules outside :data:`LAYERS`.
OTHER = "other"


def module_layer(module: Optional[str]) -> str:
    """The layer that owns a ``repro`` module, or :data:`OTHER`."""
    parts = (module or "").split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return OTHER


class LayerTracer(PhaseProfiler):
    """Span accounting: self time per layer and call counts.

    Open spans form a stack.  Each frame keeps the summed duration of
    its closed children (``_child``).  Kernel callbacks are not pushed:
    the kernel reports one only after it returns.  Spans opened inside
    the callback have by then added to the frame that dispatches it,
    the one of ``Simulator.run``.  ``_seen`` marks how much of that
    frame's child time was already accounted, so the callback's own
    children are ``_child - _seen``.  This holds because the kernel
    opens no traced span between two callbacks; run finalizers fire
    only after the last one, and stay children of ``Simulator.run``.

    Args:
        clock: Monotonic float-seconds clock.  The kernel reads the same
            clock around each callback.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        super().__init__(clock)
        #: Self seconds per layer, :data:`OTHER` included.
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS + (OTHER,), 0.0)
        #: Calls per counted entry point (metric name -> count).
        self.calls: Dict[str, int] = {}
        self._child = 0.0
        self._seen = 0.0
        self._outer: List[Tuple[float, float]] = []
        self._layer_of_module: Dict[Optional[str], str] = {}

    def layer_of(self, fn: Callable[..., object]) -> str:
        """The layer whose module defines ``fn``."""
        module = getattr(fn, "__module__", None)
        layer = self._layer_of_module.get(module)
        if layer is None:
            layer = self._layer_of_module[module] = module_layer(module)
        return layer

    def observe(self, callback: Callable[[], object], elapsed: float) -> None:
        """Charge one kernel-dispatched callback (called by the kernel)."""
        inner = self._child - self._seen
        self.self_s[self.layer_of(callback)] += elapsed - inner
        self._seen += elapsed
        self._child = self._seen
        self.events += 1

    def span(
        self, fn: Callable[..., object], layer: str, count: Optional[str] = None
    ) -> Callable[..., object]:
        """``fn`` wrapped in a span of ``layer``, optionally counted."""
        tracer = self
        clock = self.clock
        self_s = self.self_s
        outer = self._outer
        calls = self.calls
        if count is not None:
            calls.setdefault(count, 0)

        def traced(*args, **kwargs):
            if count is not None:
                calls[count] += 1
            outer.append((tracer._child, tracer._seen))
            tracer._child = tracer._seen = 0.0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - tracer._child
                child, tracer._seen = outer.pop()
                tracer._child = child + elapsed

        return traced

    def counted(self, fn: Callable[..., object], count: str) -> Callable[..., object]:
        """``fn`` counted but not timed, for calls within one layer."""
        calls = self.calls
        calls.setdefault(count, 0)

        def tallied(*args, **kwargs):
            calls[count] += 1
            return fn(*args, **kwargs)

        return tallied


def _boundaries(platform) -> List[Tuple[type, str, Optional[str], Optional[str]]]:
    """``(class, method, layer, count)`` for every traced entry point.

    ``layer`` is ``None`` for calls that stay inside one layer and are
    only counted.
    """
    from repro import DramController, Interconnect, MasterPort, Simulator
    from repro.dram.bank import Bank
    from repro.sim import stats
    from repro.telemetry import registry
    from repro.traffic.master import Master

    entries = [
        (Simulator, "run", "sim", None),
        (Simulator, "schedule", "sim", "sim.schedule_calls"),
        (Simulator, "schedule_at", "sim", "sim.schedule_calls"),
        (stats.Counter, "add", "sim", "sim.stats_updates"),
        (stats.Sampler, "record", "sim", "sim.stats_updates"),
        (stats.TimeSeries, "add", "sim", "sim.stats_updates"),
        (MasterPort, "submit", "axi", None),
        (MasterPort, "head", "axi", "axi.head_calls"),
        (MasterPort, "accept_head", "axi", "axi.accepts"),
        (MasterPort, "complete", "axi", None),
        (Interconnect, "kick", "axi", "axi.kicks"),
        (Interconnect, "on_mem_complete", "axi", None),
        (DramController, "enqueue", "dram", "dram.enqueues"),
        (Bank, "classify", None, "dram.classify_calls"),
        (Master, "start", "traffic", None),
        (Master, "issue", "traffic", "traffic.issues"),
        (registry.Counter, "inc", "telemetry", "telemetry.updates"),
        (registry.Gauge, "set", "telemetry", "telemetry.updates"),
        (registry.Gauge, "inc", "telemetry", "telemetry.updates"),
        (registry.Gauge, "dec", "telemetry", "telemetry.updates"),
        (registry.Histogram, "observe", "telemetry", "telemetry.updates"),
    ]
    for cls in sorted({type(r) for r in platform.regulators.values()}, key=str):
        entries += [
            (cls, "may_issue", "regulation", "regulation.may_issue_calls"),
            (cls, "charge", "regulation", "regulation.charges"),
            (cls, "next_opportunity", "regulation",
             "regulation.next_opportunity_calls"),
        ]
    return entries


_MISSING = object()


@contextmanager
def instrument(tracer: LayerTracer, platform) -> Iterator[LayerTracer]:
    """Trace ``platform``'s layer boundaries within a ``with`` block.

    Swaps each entry point of :func:`_boundaries` for a span (or a
    counter), wraps the callables that ports hold by reference (the
    master's response hook, beat and completion observers), and
    attaches ``tracer`` to the kernel.  Class attributes are restored on
    exit, so untraced platforms built later run the original code.
    """
    saved = []
    try:
        for cls, name, layer, count in _boundaries(platform):
            saved.append((cls, name, cls.__dict__.get(name, _MISSING)))
            original = getattr(cls, name)
            if layer is None:
                setattr(cls, name, tracer.counted(original, count))
            else:
                setattr(cls, name, tracer.span(original, layer, count))
        for port in platform.ports.values():
            if port.on_response is not None:
                port.on_response = tracer.span(
                    port.on_response, tracer.layer_of(port.on_response)
                )
            for hooks in (port.beat_observers, port.completion_observers):
                hooks[:] = [tracer.span(h, tracer.layer_of(h)) for h in hooks]
        with tracer.attach_to(platform.sim):
            yield tracer
    finally:
        for cls, name, original in reversed(saved):
            if original is _MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, original)
