"""E22 -- Simulation-kernel hot-path micro-benchmark.

Not a figure of the reproduced paper: this bench times the discrete-
event engine itself -- the binary-heap event queue, event-pool
recycling, lazy-deletion compaction and the same-cycle dispatch fast
path -- so regressions in the substrate every experiment stands on
fail loudly instead of silently stretching suite wall-clock.

* ``scheduler_stress`` -- a classic hold model (pop one, reschedule at
  ``now + delay``) at a resident population of 128k events, far above
  any platform run's population; the rate the smoke benchmark's trend
  gate tracks;
* ``push_pop``      -- raw churn (schedule + dispatch, no cancels);
* ``cancel_churn``  -- 90% of scheduled events cancelled; exercises the
  compaction path and asserts cancelled shells cannot accumulate past
  the compaction bound;
* ``same_cycle``    -- many events per cycle through ``Simulator.run``;
  exercises the single-scan same-cycle fast path;
* ``platform``      -- a small end-to-end platform run (cycles/second),
  the figure that predicts benchmark-suite wall-clock.
"""

from __future__ import annotations

import random
import time

from repro.sim.event import EventQueue
from repro.sim.kernel import Simulator
from repro.soc.experiment import run_experiment
from repro.soc.presets import zcu102

from benchmarks.common import report

STRESS_POPULATION = 131_072
STRESS_EVENTS = 200_000
PUSH_POP_EVENTS = 200_000
CHURN_EVENTS = 200_000
SAME_CYCLE_CYCLES = 2_000
SAME_CYCLE_PER_CYCLE = 100
PLATFORM_CPU_WORK = 2_000


def _bench_scheduler_stress():
    """Hold model: steady population, pop-one / push-one-later."""
    rng = random.Random(20230711)
    delays = [rng.randrange(1, 12) for _ in range(4096)]
    queue = EventQueue()
    for i in range(STRESS_POPULATION):
        queue.push(delays[i & 4095], 0, None)
    index = 0
    start = time.perf_counter()
    for _ in range(STRESS_EVENTS):
        event = queue.pop()
        now = event.time
        queue.recycle(event)
        queue.push(now + delays[index & 4095], 0, None)
        index += 1
    elapsed = time.perf_counter() - start
    return STRESS_EVENTS / elapsed, {"population": STRESS_POPULATION}


def _bench_push_pop():
    queue = EventQueue()
    sink = []
    start = time.perf_counter()
    for i in range(PUSH_POP_EVENTS):
        queue.push(i, 0, sink.append)
    while len(queue):
        queue.pop()
    elapsed = time.perf_counter() - start
    return PUSH_POP_EVENTS / elapsed, {}


def _bench_cancel_churn():
    queue = EventQueue()
    peak_resident = 0
    start = time.perf_counter()
    events = []
    for i in range(CHURN_EVENTS):
        events.append(queue.push(i, 0, lambda: None))
        if len(events) == 1000:
            # Cancel 90%: models retry events obsoleted by progress.
            for ev in events[:900]:
                ev.cancel()
            peak_resident = max(peak_resident, len(queue))
            for _ in range(100):
                queue.pop()
            events.clear()
    elapsed = time.perf_counter() - start
    return CHURN_EVENTS / elapsed, {"peak_resident": peak_resident}


def _bench_same_cycle():
    sim = Simulator()
    fired = [0]

    def tick():
        fired[0] += 1

    for cycle in range(SAME_CYCLE_CYCLES):
        for _ in range(SAME_CYCLE_PER_CYCLE):
            sim.schedule_at(cycle, tick)
    total = SAME_CYCLE_CYCLES * SAME_CYCLE_PER_CYCLE
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    assert fired[0] == total
    return total / elapsed, {}


def _bench_platform():
    config = zcu102(num_accels=2, cpu_work=PLATFORM_CPU_WORK)
    start = time.perf_counter()
    result = run_experiment(config)
    elapsed = time.perf_counter() - start
    return result.elapsed / elapsed, {"sim_cycles": result.elapsed}


def run_e22():
    probes = (
        ("scheduler_stress", "events/s", _bench_scheduler_stress),
        ("push_pop", "events/s", _bench_push_pop),
        ("cancel_churn", "events/s", _bench_cancel_churn),
        ("same_cycle", "events/s", _bench_same_cycle),
        ("platform", "cycles/s", _bench_platform),
    )
    rows = []
    for name, unit, fn in probes:
        rate, extra = fn()
        rows.append({"probe": name, "unit": unit, "rate": rate, **extra})
    return rows


def test_e22_kernel(benchmark):
    rows = benchmark.pedantic(run_e22, rounds=1, iterations=1)
    report(
        "e22_kernel",
        rows,
        "E22: simulation-kernel hot-path throughput "
        f"({STRESS_EVENTS // 1000}k-event probes)",
        columns=[
            "probe",
            "unit",
            "rate",
            "population",
            "peak_resident",
            "sim_cycles",
        ],
    )
    by_probe = {r["probe"]: r for r in rows}
    # Every probe must actually move work.
    for row in rows:
        assert row["rate"] > 0
    # Lazy-deletion compaction: with 90% of events cancelled, the queue
    # may never grow anywhere near the total number of scheduled
    # events -- shells are reclaimed once they hold the majority.
    assert by_probe["cancel_churn"]["peak_resident"] < CHURN_EVENTS / 10
    # The end-to-end platform run simulates at a usable rate (far
    # below the raw kernel rate; this guards factor-scale regressions).
    assert by_probe["platform"]["rate"] > 10_000
