"""Differential test: the heap event queue against a brute-force model.

For any sequence of queue operations the heap must dispatch the same
events in the same ``(time, priority, seq)`` order as a plain list
scanned for its minimum, and report the same live-foreground count.
The randomized programs below drive both with the same operations and
compare the traces exactly.
"""

import random

import pytest

from repro.sim.event import Event, EventQueue


class _ReferenceQueue:
    """The queue protocol subset the programs use, by linear scan."""

    def __init__(self):
        self._events = []
        self._seq = 0

    def push(self, time, priority, callback, daemon=False):
        event = Event(time, priority, self._seq, callback, daemon=daemon)
        self._seq += 1
        self._events.append(event)
        return event

    def _live(self):
        return [e for e in self._events if not e.cancelled]

    def peek_time(self):
        live = self._live()
        return min(live).time if live else None

    def pop(self):
        event = min(self._live())
        self._events.remove(event)
        return event

    @property
    def live_foreground(self):
        return sum(1 for e in self._live() if not e.daemon)


def _random_program(seed, steps):
    """An op script exercising the queue surface.

    Times mix same-cycle bursts, near-future delays and far jumps;
    ops mix pushes, daemon pushes, cancels of arbitrary handles
    (including already-dispatched ones), pops and peeks.
    """
    rng = random.Random(seed)
    program = []
    for _ in range(steps):
        r = rng.random()
        if r < 0.55:
            kind = "push_daemon" if rng.random() < 0.15 else "push"
            delay = rng.choice(
                (0, 0, 1, 2, 3, rng.randrange(64), rng.randrange(768))
            )
            program.append((kind, delay, rng.randrange(8)))
        elif r < 0.70:
            program.append(("cancel", rng.randrange(1 << 30), 0))
        elif r < 0.95:
            program.append(("pop", 0, 0))
        else:
            program.append(("peek", 0, 0))
    return program


def _execute(queue, program):
    """Run a program; return the dispatch trace and final state."""
    trace = []
    handles = []
    base = 0  # advances with dispatched times, so pushes stay relative
    for kind, arg, priority in program:
        if kind in ("push", "push_daemon"):
            ev = queue.push(
                base + arg, priority, lambda: None, daemon=kind == "push_daemon"
            )
            handles.append(ev)
        elif kind == "cancel":
            if handles:
                handles[arg % len(handles)].cancel()
        elif kind == "pop":
            if queue.peek_time() is not None:
                ev = queue.pop()
                trace.append((ev.time, ev.priority, ev.seq, ev.daemon))
                base = ev.time
        elif kind == "peek":
            trace.append(("peek", queue.peek_time()))
        trace.append(("live", queue.live_foreground))
    # Drain what's left so tail-end ordering is compared too.
    while queue.peek_time() is not None:
        ev = queue.pop()
        trace.append((ev.time, ev.priority, ev.seq, ev.daemon))
    return trace


@pytest.mark.parametrize("seed", range(12))
def test_randomized_programs_dispatch_identically(seed):
    program = _random_program(seed, steps=400)
    assert _execute(EventQueue(), program) == _execute(_ReferenceQueue(), program)
