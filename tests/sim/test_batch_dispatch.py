"""Journal tests for the dispatch loop.

A seeded cascading program drives the kernel through every way a cycle
can be interrupted -- same-cycle pushes that sort before or after the
rest of their cycle, retained-handle cancels, push-then-cancel inside
one cycle, daemons, stop requests and bounded runs -- and records a
full dispatch journal.  The journal must be identical on rerun, with
the sanitizer on, when the run is split by ``run(until=...)`` or
``request_stop``, and with a profiler attached.  Targeted cases pin
same-cycle push order and cancels issued from inside a cycle.

The module, class and test names date from when the kernel also had a
batched dispatch loop and these tests compared it against the
per-event loop; they are kept so test ids stay comparable across
versions.  The ``scheduler`` parameter names the kernel's one queue
backend, and each run checks that it dispatched on it.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Phase, Simulator
from repro.telemetry.profiler import PhaseProfiler

BACKENDS = ("heap",)

PRIORITIES = (
    Phase.REGULATOR,
    Phase.MASTER,
    Phase.ARBITER,
    Phase.MEMORY,
    Phase.RESPONSE,
    Phase.MONITOR,
    Phase.STATS,
)


def _simulator(scheduler):
    sim = Simulator()
    assert sim.kernel_stats()["backend"] == scheduler
    return sim


def _run_program(scheduler, seed, bounds=(), stop_every=None, profiler=None):
    """Drive a seeded cascading workload; return its journal.

    The workload mixes same-cycle pushes at arbitrary phases (sorting
    before or after the rest of the cycle), future pushes, retained-
    handle cancels, same-cycle push-then-cancel and a daemon.  The
    run is split at each cycle in ``bounds`` (``run(until=...)``) and,
    with ``stop_every``, by a ``request_stop`` after every
    ``stop_every``-th callback, resuming with ``run()`` until a run
    ends without a stop.  Neither split changes what the callbacks
    do, so every split must journal like one unbounded run.
    """
    sim = _simulator(scheduler)
    rng = random.Random(seed)
    journal = []
    retained = []
    budget = [400]
    stops = [0]

    def work(tag):
        journal.append((sim.now, tag))
        if stop_every is not None and len(journal) % stop_every == 0:
            sim.request_stop()
            stops[0] += 1
        if budget[0] <= 0:
            return
        budget[0] -= 1
        if rng.random() < 0.40:
            sim.schedule(
                0, lambda: work(tag + 1), priority=rng.choice(PRIORITIES)
            )
        if rng.random() < 0.80:
            sim.schedule(
                rng.choice((1, 2, 3, rng.randrange(1, 512))),
                lambda: work(tag + 100),
                priority=rng.choice(PRIORITIES),
            )
        if rng.random() < 0.20:
            retained.append(
                sim.schedule(
                    rng.randrange(0, 12),
                    lambda: work(-tag),
                    priority=rng.choice(PRIORITIES),
                )
            )
        if retained and rng.random() < 0.35:
            retained.pop(rng.randrange(len(retained))).cancel()
        if rng.random() < 0.10:
            ev = sim.schedule(0, lambda: journal.append("never"), priority=90)
            ev.cancel()

    for phase in PRIORITIES:
        sim.schedule(1, lambda p=phase: work(p), priority=phase)
    sim.schedule(2, lambda: journal.append((sim.now, "tick")), daemon=True)
    if profiler is not None:
        profiler.attach(sim)
    for bound in bounds + (None,):
        while True:
            before = stops[0]
            sim.run(until=bound)
            if stops[0] == before:
                break
        if bound is not None:
            assert sim.now == bound
    journal.append(("end", sim.now, sim.events_dispatched))
    return journal


@pytest.mark.parametrize("scheduler", BACKENDS)
@pytest.mark.parametrize("seed", range(8))
def test_randomized_programs_bit_identical(scheduler, seed, monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    first = _run_program(scheduler, seed)
    assert len(first) > 100  # the program must do real work
    assert _run_program(scheduler, seed) == first


@pytest.mark.parametrize("scheduler", BACKENDS)
@pytest.mark.parametrize("seed", range(4))
def test_randomized_programs_with_sanitizer(scheduler, seed, monkeypatch):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    plain = _run_program(scheduler, seed)
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert _run_program(scheduler, seed) == plain


@pytest.mark.parametrize("scheduler", BACKENDS)
@pytest.mark.parametrize("seed", range(4))
def test_bounded_and_stopped_runs_bit_identical(scheduler, seed):
    whole = _run_program(scheduler, seed)
    assert _run_program(scheduler, seed, bounds=(1, 9, 40, 300)) == whole
    assert _run_program(scheduler, seed, stop_every=25) == whole
    assert _run_program(scheduler, seed, bounds=(9,), stop_every=7) == whole


@pytest.mark.parametrize("seed", range(2))
def test_profiled_run_is_identical(seed):
    whole = _run_program("heap", seed)
    profiler = PhaseProfiler()
    assert _run_program("heap", seed, profiler=profiler) == whole
    assert profiler.events == whole[-1][2]


class TestDirtyGuard:
    """Same-cycle pushes must interleave with the rest of their cycle."""

    @pytest.mark.parametrize("scheduler", BACKENDS)
    def test_push_into_middle_of_tail(self, scheduler):
        # During the priority-0 callback, push priority 20 while the
        # rest of the cycle is [10, 30]: the push fires between them.
        sim = _simulator(scheduler)
        order = []

        def pusher():
            order.append(0)
            sim.schedule(0, lambda: order.append(20), priority=20)

        sim.schedule_at(5, pusher, priority=0)
        sim.schedule_at(5, lambda: order.append(10), priority=10)
        sim.schedule_at(5, lambda: order.append(30), priority=30)
        sim.run()
        assert order == [0, 10, 20, 30]

    @pytest.mark.parametrize("scheduler", BACKENDS)
    def test_push_before_whole_tail(self, scheduler):
        sim = _simulator(scheduler)
        order = []

        def pusher():
            order.append("reg")
            sim.schedule(0, lambda: order.append("mast2"), priority=10)

        sim.schedule_at(3, pusher, priority=Phase.REGULATOR)
        sim.schedule_at(3, lambda: order.append("arb"), priority=20)
        sim.schedule_at(3, lambda: order.append("stats"), priority=90)
        sim.run()
        assert order == ["reg", "mast2", "arb", "stats"]

    @pytest.mark.parametrize("scheduler", BACKENDS)
    def test_push_after_tail_is_not_dirty_but_still_fires(self, scheduler):
        # Equal priority sorts after every remaining entry (new seq):
        # the event still fires within the same cycle, last.
        sim = _simulator(scheduler)
        order = []

        def pusher():
            order.append("a")
            sim.schedule(0, lambda: order.append("late"), priority=90)

        sim.schedule_at(7, pusher, priority=10)
        sim.schedule_at(7, lambda: order.append("b"), priority=90)
        sim.run()
        assert (order, sim.now) == (["a", "b", "late"], 7)


class TestMidBatchCancel:
    """Cancels issued from inside a callback, against its own cycle."""

    @pytest.mark.parametrize("scheduler", BACKENDS)
    def test_sibling_cancel_on_clean_queue(self, scheduler):
        # A callback cancels a later event of its own cycle: the victim
        # never fires and is not counted as dispatched.
        sim = _simulator(scheduler)
        order = []
        victims = {}

        def canceller():
            order.append("c")
            victims["v"].cancel()

        sim.schedule_at(4, canceller, priority=0)
        sim.schedule_at(4, lambda: order.append("mid"), priority=10)
        victims["v"] = sim.schedule_at(
            4, lambda: order.append("victim"), priority=30
        )
        sim.run()
        assert (order, sim.events_dispatched) == (["c", "mid"], 2)

    @pytest.mark.parametrize("scheduler", BACKENDS)
    def test_self_cancel_is_noop(self, scheduler):
        # cancel() from inside the event's own callback comes after its
        # dispatch and must not disturb the queue's accounting.
        sim = _simulator(scheduler)
        order = []
        handle = {}

        def selfish():
            order.append("s")
            handle["me"].cancel()

        handle["me"] = sim.schedule_at(2, selfish, priority=0)
        sim.schedule_at(2, lambda: order.append("after"), priority=10)
        sim.schedule_at(6, lambda: order.append("later"))
        sim.run()
        assert (order, sim.now) == (["s", "after", "later"], 6)

    @pytest.mark.parametrize("scheduler", BACKENDS)
    def test_cancel_last_foreground_ends_run_before_daemon(self, scheduler):
        # With no live foreground work left, a same-cycle daemon behind
        # the cancelled victim must not fire.
        sim = _simulator(scheduler)
        order = []
        victims = {}

        def canceller():
            order.append("c")
            victims["v"].cancel()

        sim.schedule_at(3, canceller, priority=0)
        victims["v"] = sim.schedule_at(
            3, lambda: order.append("victim"), priority=20
        )
        sim.schedule_at(
            3, lambda: order.append("daemon"), priority=50, daemon=True
        )
        sim.run()
        assert order == ["c"]


class TestIdleSkipAccounting:
    @settings(max_examples=60, deadline=None)
    @given(
        times=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=768),
                st.sampled_from(PRIORITIES),
            ),
            min_size=1,
            max_size=40,
        ),
        scheduler=st.sampled_from(BACKENDS),
    )
    def test_idle_skip_never_skips_an_event(self, times, scheduler):
        """Property: jumping over idle cycles never skips an event --
        every scheduled event fires at exactly its cycle, in
        ``(time, priority, insertion)`` order."""
        sim = _simulator(scheduler)
        fired = []
        for index, (t, priority) in enumerate(times):
            sim.schedule_at(
                t,
                lambda t=t, p=priority, i=index: fired.append(
                    (sim.now, t, p, i)
                ),
                priority=priority,
            )
        sim.run()
        assert len(fired) == len(times)
        assert all(now == t for now, t, _, _ in fired)
        assert [f[1:] for f in fired] == sorted(
            (t, p, i) for i, (t, p) in enumerate(times)
        )
