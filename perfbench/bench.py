"""Measurement loop of the benchmark.

One run simulates a workload's batch over and over, one simulation at a
time in this process, until the requested seconds have passed.  Every
simulation is checked: its summary digest must equal the stored
reference for the workload and seed, and the model invariants must hold.

* Untraced (``trace=False``) reports the end-to-end metrics: the batch's
  host time, the work it did per host second, the time to build its
  platforms, and the largest peak Python heap of one of its simulations.
* Traced (``trace=True``) alternates untraced and traced passes over the
  batch and reports host self time and call counts per layer (see
  :mod:`perfbench.tracing`) from the traced pass with the median wall
  time.

On a shared host the speed of one core drifts by a third or more within
minutes, with other tenants' load, and process CPU time drifts with it.
So every end-to-end time is normalized.  A fixed pure-Python loop that
runs no simulator code (:func:`calibration_seconds`) is timed before and
after each measured piece of work, and the work's host seconds are scaled
by :data:`CALIBRATION_NOMINAL_S` over the loop's mean time.  The reported
times are host seconds at the speed at which the loop takes its nominal
time; raw seconds are printed beside them.
"""

from __future__ import annotations

import gc
import heapq
import json
import statistics
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import MetricsRegistry, Platform, PlatformResult, use_registry

from perfbench.tracing import LAYERS, OTHER, LayerTracer, instrument
from perfbench.workloads import (
    FULL,
    Sim,
    Size,
    batch,
    digest,
    invariant_violations,
    seed_slot,
)

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Host seconds one calibration pass takes on the 2-core Xeon box the
#: benchmark was defined on; normalized times are host seconds at that
#: speed.
CALIBRATION_NOMINAL_S = 0.03

#: ``setup_s`` is the median over this many groups of batch builds, each
#: group bracketed by calibration passes ...
SETUP_GROUPS = 15

#: ... and this many builds of the whole batch per group.
SETUP_BUILDS_PER_GROUP = 10

#: ``(name, unit)`` of the end-to-end metrics, in report order.
END_TO_END = (
    ("wall_s", "s"),
    ("txn_per_s", "txn/s"),
    ("sim_cycles_per_s", "cycles/s"),
    ("setup_s", "s"),
    ("peak_mem_mb", "MB"),
)

#: ``(name, unit)`` of the per-layer metrics, in report order.
PER_LAYER = (
    ("sim.self_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_txn", "events/txn"),
    ("sim.schedule_calls", "count"),
    ("sim.stats_updates", "count"),
    ("sim.promotions", "count"),
    ("sim.auto_promotions", "count"),
    ("sim.batch_promotions", "count"),
    ("axi.self_s", "s"),
    ("axi.head_calls", "count"),
    ("axi.accepts", "count"),
    ("axi.accept_ratio", "ratio"),
    ("axi.kicks", "count"),
    ("dram.self_s", "s"),
    ("dram.enqueues", "count"),
    ("dram.serviced", "count"),
    ("dram.classify_calls", "count"),
    ("dram.classify_per_service", "ratio"),
    ("dram.queue_depth_mean", "txn"),
    ("dram.row_hit_rate", "ratio"),
    ("regulation.self_s", "s"),
    ("regulation.may_issue_calls", "count"),
    ("regulation.denials", "count"),
    ("regulation.admit_ratio", "ratio"),
    ("regulation.next_opportunity_calls", "count"),
    ("traffic.self_s", "s"),
    ("traffic.issues", "count"),
    ("telemetry.self_s", "s"),
    ("telemetry.updates", "count"),
    ("traced_wall_s", "s"),
    ("unattributed_s", "s"),
    ("trace_overhead", "ratio"),
)


@dataclass
class SimRecord:
    """What one simulation left behind for the metrics."""

    wall_s: float
    #: Mean of the calibration passes right before and after it.
    calibration_s: float
    digest: str
    elapsed: int
    serviced: int
    denials: int
    queue_depth_total: float
    queue_depth_count: int
    row_hits: int
    row_accesses: int
    kernel: Dict[str, object]

    @property
    def norm_s(self) -> float:
        """Host seconds at the calibration loop's nominal speed."""
        return self.wall_s * CALIBRATION_NOMINAL_S / self.calibration_s


@dataclass
class Checker:
    """Compares every simulation with the stored reference digests."""

    expected: List[str]
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def check(self, index: int, sim: Sim, result: PlatformResult) -> str:
        self.attempted += 1
        found = digest(result)
        problems = invariant_violations(sim, result)
        if index >= len(self.expected) or found != self.expected[index]:
            problems.append(f"simulation {index}: digest {found} != reference")
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return found


def load_reference(workload: str, seed: int, size: Size) -> List[str]:
    """Reference digests of the batch ``(workload, seed)`` at ``size``."""
    with open(REFERENCE_PATH) as fh:
        table = json.load(fh)
    return table[size.name][workload][seed_slot(seed)]


def simulate(
    sim: Sim, tracer: Optional[LayerTracer] = None
) -> Tuple[PlatformResult, float]:
    """Build and run one simulation; returns its result and host seconds.

    The timed region is ``Platform.run`` alone.  Each simulation gets a
    fresh metrics registry, so telemetry never carries over.
    """
    with use_registry(MetricsRegistry()):
        platform = Platform(sim.config)
        gc.collect()
        run, scope = platform.run, nullcontext()
        if tracer is not None:
            run, scope = tracer.span(run, OTHER), instrument(tracer, platform)
        with scope:
            start = time.perf_counter()
            elapsed = run(sim.max_cycles, sim.stop_when_critical_done)
            wall = time.perf_counter() - start
    return PlatformResult(platform, elapsed), wall


class _Item:
    __slots__ = ("key", "weight")

    def __init__(self, key: int) -> None:
        self.key = key
        self.weight = key + 1

    def value(self) -> int:
        return self.key + self.weight


def calibration_seconds() -> float:
    """Host seconds of one pass of a fixed pure-Python loop.

    The loop allocates small objects and works a heap and a dict, as the
    simulator does, but runs none of its code, so a change to the
    simulator cannot change it.
    """
    gc.collect()
    heap: List[Tuple[int, int, _Item]] = []
    latest: Dict[int, _Item] = {}
    total = 0
    start = time.perf_counter()
    for i in range(30_000):
        item = _Item(i)
        heapq.heappush(heap, (i % 97, i, item))
        latest[i & 1023] = item
        total += item.value()
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - start


def run_batch(
    sims: List[Sim], checker: Checker, tracer: Optional[LayerTracer] = None
) -> List[SimRecord]:
    """Simulate each member of the batch once, checking every result.

    Calibration passes sit between the simulations, so each one is timed
    right before and right after it.
    """
    records = []
    before = calibration_seconds()
    for index, sim in enumerate(sims):
        result, wall = simulate(sim, tracer)
        after = calibration_seconds()
        platform = result.platform
        depth = platform.dram.stats.sampler("queue_depth")
        records.append(
            SimRecord(
                wall_s=wall,
                calibration_s=(before + after) / 2,
                digest=checker.check(index, sim, result),
                elapsed=result.elapsed,
                serviced=result.dram.serviced,
                denials=sum(m.regulator_denials for m in result.masters.values()),
                queue_depth_total=depth.total,
                queue_depth_count=depth.count,
                row_hits=sum(b.hits for b in platform.dram.banks),
                row_accesses=sum(b.accesses for b in platform.dram.banks),
                kernel=platform.sim.kernel_stats(),
            )
        )
        before = after
    return records


def batch_seconds(reps: List[List[SimRecord]], field: str = "norm_s") -> float:
    """Batch host seconds: the sum of each simulation's median time.

    ``field`` picks normalized (``norm_s``) or raw (``wall_s``) seconds.
    """
    return sum(
        statistics.median(getattr(rep[i], field) for rep in reps)
        for i in range(len(reps[0]))
    )


def setup_seconds(sims: List[Sim]) -> float:
    """Median normalized host seconds to build every platform of the batch."""
    samples = []
    before = calibration_seconds()
    for _ in range(SETUP_GROUPS):
        gc.collect()
        start = time.perf_counter()
        for _ in range(SETUP_BUILDS_PER_GROUP):
            for sim in sims:
                with use_registry(MetricsRegistry()):
                    Platform(sim.config)
        elapsed = (time.perf_counter() - start) / SETUP_BUILDS_PER_GROUP
        after = calibration_seconds()
        samples.append(elapsed * CALIBRATION_NOMINAL_S * 2 / (before + after))
        before = after
    return statistics.median(samples)


def peak_heap_mb(sims: List[Sim], checker: Checker) -> float:
    """Largest peak traced Python heap of building and running one
    simulation of the batch."""
    peaks = []
    for index, sim in enumerate(sims):
        gc.collect()
        tracemalloc.start()
        try:
            result, _ = simulate(sim)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        checker.check(index, sim, result)
    return max(peaks) / 1e6


def end_to_end(
    reps: List[List[SimRecord]], setup_s: float, peak_mb: float
) -> Dict[str, float]:
    wall = batch_seconds(reps)
    first = reps[0]
    return {
        "wall_s": wall,
        "txn_per_s": sum(r.serviced for r in first) / wall,
        "sim_cycles_per_s": sum(r.elapsed for r in first) / wall,
        "setup_s": setup_s,
        "peak_mem_mb": peak_mb,
    }


def kernel_summary(records: List[SimRecord]) -> Dict[str, object]:
    """The kernel's scheduler mode and accelerator promotions in a batch."""
    return {
        "backend": records[0].kernel["backend"],
        "dispatch_mode": records[0].kernel["dispatch_mode"],
        "auto_promotions": sum(r.kernel["auto_promotions"] for r in records),
        "batch_promotions": sum(r.kernel["batch_promotions"] for r in records),
    }


def per_layer(
    untraced: List[List[SimRecord]],
    traced: List[Tuple[LayerTracer, List[SimRecord]]],
) -> Dict[str, float]:
    """Layer metrics from the traced pass with the median wall time.

    Promotion counts come from an untraced pass: an attached profiler
    makes the kernel choose batched dispatch up front.
    """
    ranked = sorted(traced, key=lambda pass_: sum(r.wall_s for r in pass_[1]))
    tracer, records = ranked[(len(ranked) - 1) // 2]
    wall = sum(r.wall_s for r in records)
    calls = tracer.calls
    serviced = sum(r.serviced for r in records)
    kernel = kernel_summary(untraced[0])
    auto, batch = kernel["auto_promotions"], kernel["batch_promotions"]
    may_issue = calls.get("regulation.may_issue_calls", 0)
    metrics: Dict[str, float] = {
        "sim.events": sum(r.kernel["events_dispatched"] for r in records),
        "sim.schedule_calls": calls["sim.schedule_calls"],
        "sim.stats_updates": calls["sim.stats_updates"],
        "sim.promotions": auto + batch,
        "sim.auto_promotions": auto,
        "sim.batch_promotions": batch,
        "axi.head_calls": calls["axi.head_calls"],
        "axi.accepts": calls["axi.accepts"],
        "axi.accept_ratio": calls["axi.accepts"] / calls["axi.head_calls"],
        "axi.kicks": calls["axi.kicks"],
        "dram.enqueues": calls["dram.enqueues"],
        "dram.serviced": serviced,
        "dram.classify_calls": calls["dram.classify_calls"],
        "dram.classify_per_service": calls["dram.classify_calls"] / serviced,
        "dram.queue_depth_mean": (
            sum(r.queue_depth_total for r in records)
            / sum(r.queue_depth_count for r in records)
        ),
        "dram.row_hit_rate": (
            sum(r.row_hits for r in records) / sum(r.row_accesses for r in records)
        ),
        "regulation.may_issue_calls": may_issue,
        "regulation.denials": sum(r.denials for r in records),
        "regulation.admit_ratio": (
            calls.get("regulation.charges", 0) / may_issue if may_issue else 0.0
        ),
        "regulation.next_opportunity_calls": calls.get(
            "regulation.next_opportunity_calls", 0
        ),
        "traffic.issues": calls["traffic.issues"],
        "telemetry.updates": calls["telemetry.updates"],
        "traced_wall_s": wall,
        "unattributed_s": wall - sum(tracer.self_s[layer] for layer in LAYERS),
        "trace_overhead": (
            batch_seconds([recs for _, recs in traced]) / batch_seconds(untraced)
        ),
    }
    metrics["sim.events_per_txn"] = metrics["sim.events"] / serviced
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = tracer.self_s[layer]
    return metrics


@dataclass
class Report:
    """Outcome of one benchmark run."""

    metrics: Dict[str, float]
    units: Dict[str, str]
    attempted: int
    failed: int
    problems: List[str]
    kernel: Dict[str, object]
    #: Untraced batch seconds before normalization, and the median
    #: calibration pass (printed, not part of the result line).
    raw_wall_s: float
    calibration_s: float

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def result_line(self) -> str:
        """The one-line JSON result the benchmark prints last."""
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": self.units[name]}
                    for name, value in self.metrics.items()
                },
            }
        )


def run(
    workload: str, seed: int, seconds: float, trace: bool, size: Size = FULL
) -> Report:
    """Measure ``workload`` for about ``seconds`` host seconds."""
    sims = batch(workload, seed, size)
    checker = Checker(load_reference(workload, seed, size))
    untraced: List[List[SimRecord]] = []
    traced: List[Tuple[LayerTracer, List[SimRecord]]] = []
    setup_s = 0.0 if trace else setup_seconds(sims)
    start = time.perf_counter()
    # Traced simulations are checked against the same reference digests
    # as untraced ones, so a trace that changed a result counts as failed.
    while not untraced or time.perf_counter() - start < seconds:
        untraced.append(run_batch(sims, checker))
        if trace:
            tracer = LayerTracer()
            traced.append((tracer, run_batch(sims, checker, tracer)))
    if trace:
        metrics, units = per_layer(untraced, traced), dict(PER_LAYER)
    else:
        peak_mb = peak_heap_mb(sims, checker)
        metrics, units = end_to_end(untraced, setup_s, peak_mb), dict(END_TO_END)
    return Report(
        metrics={name: metrics[name] for name in units},
        units=units,
        attempted=checker.attempted,
        failed=checker.failed,
        problems=checker.problems,
        kernel=kernel_summary(untraced[0]),
        raw_wall_s=batch_seconds(untraced, "wall_s"),
        calibration_s=statistics.median(
            r.calibration_s for rep in untraced for r in rep
        ),
    )
