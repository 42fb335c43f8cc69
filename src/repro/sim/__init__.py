"""Simulation kernel (substrate S1).

A deterministic, event-driven, cycle-level simulation engine.  Time is
an integer cycle count of a single reference clock (the FPGA fabric /
interconnect clock); slower clock domains are expressed as integer
multiples of the reference period.

Public entry points:

* :class:`repro.sim.kernel.Simulator` -- the event loop over one
  binary-heap :class:`repro.sim.event.EventQueue`.
* :class:`repro.sim.stats.StatSet` -- named counters and samplers.
* :class:`repro.sim.trace.TraceRecorder` -- optional transaction traces.
* :func:`repro.sim.rng.component_rng` -- stable per-component RNGs.
"""

from repro.sim.event import Event, EventQueue
from repro.sim.kernel import Simulator
from repro.sim.rng import component_rng
from repro.sim.stats import Counter, Sampler, StatSet, TimeSeries
from repro.sim.trace import TraceRecord, TraceRecorder

__all__ = [
    "Event",
    "EventQueue",
    "Simulator",
    "component_rng",
    "Counter",
    "Sampler",
    "StatSet",
    "TimeSeries",
    "TraceRecord",
    "TraceRecorder",
]
