"""The benchmark's workloads: batches of simulations on paper configurations.

Every workload is closed loop: each master issues its next burst when
one of its outstanding slots frees, so a slower memory system receives
less load.  A workload turns the benchmark seed into a batch of
:class:`~repro.soc.platform.PlatformConfig` objects; the seed reaches the
program only through those configs.

The paper presets are deterministic in everything but the seed of their
stochastic patterns, and the ``latency_probe``/``stream_read`` pair has
none.  So the seed also staggers the start cycle of every non-critical
master by up to :data:`START_JITTER` cycles.  That changes the
interleaving, and so the exact results, while the amount of simulated
work stays the same.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List

from repro import PlatformConfig, PlatformResult, RegulatorSpec, zcu102
from repro.soc.experiment import DEFAULT_MAX_CYCLES
from repro.soc.scenarios import make_scenario

#: Distinct input sets.  The benchmark seed is reduced modulo this, and
#: ``reference.json`` holds the expected digests of every slot.
SEED_SLOTS = 32

#: Largest start offset, in cycles, drawn for a non-critical master.
START_JITTER = 1024


@dataclass(frozen=True)
class Size:
    """How much simulated work one batch holds.

    Attributes:
        sims: Simulations per batch.
        hog_accesses: Work quantum of the critical core in
            ``hog_contention`` (cache-line reads).
        fine_horizon: Simulated cycles of each ``fine_regulation`` run.
        mixed_accesses: Work quantum of the critical parser in
            ``mixed_rw`` (dependent loads).
    """

    name: str
    sims: int
    hog_accesses: int
    fine_horizon: int
    mixed_accesses: int


#: The size the benchmark measures: about a quarter of a host second per
#: simulation on a 2-core Xeon box.  Short simulations keep each one close
#: in time to the calibration passes around it (see perfbench.bench).
FULL = Size("full", sims=6, hog_accesses=400, fine_horizon=80_000,
            mixed_accesses=200)

#: The reduced size of the benchmark's own smoke tests.
SMOKE = Size("smoke", sims=2, hog_accesses=60, fine_horizon=8_000,
             mixed_accesses=30)

SIZES = {size.name: size for size in (FULL, SMOKE)}


@dataclass(frozen=True)
class Sim:
    """One simulation of a batch: a config and how far to run it."""

    config: PlatformConfig
    max_cycles: int
    stop_when_critical_done: bool


def _stagger(config: PlatformConfig, rng: random.Random) -> PlatformConfig:
    """Start every non-critical master at a seed-drawn cycle."""
    return config.with_masters(
        m if m.critical else replace(m, start_at=rng.randrange(START_JITTER))
        for m in config.masters
    )


def _share_spec(kind: str, share: float, cycles: int, peak: float) -> RegulatorSpec:
    """A regulator holding a master to ``share`` of channel peak."""
    budget = max(1, round(share * peak * cycles))
    if kind == "tightly_coupled":
        return RegulatorSpec(kind=kind, window_cycles=cycles, budget_bytes=budget)
    return RegulatorSpec(kind=kind, period_cycles=cycles, budget_bytes=budget)


def _hog_contention(rng: random.Random, seed: int, size: Size) -> Sim:
    """The critical core beside 7 unregulated ``stream_read`` hogs, run
    until the critical work is done: the FR-FCFS queue is deepest and all
    8 AXI ports contend every cycle, while regulation does nothing."""
    config = zcu102(num_accels=7, cpu_work=size.hog_accesses, seed=seed)
    return Sim(_stagger(config, rng), DEFAULT_MAX_CYCLES, True)


def _fine_regulation(rng: random.Random, seed: int, size: Size) -> Sim:
    """The paper's headline regime (E2/E3/E5): 4 hogs under
    tightly-coupled regulation at 10% of peak per 256-cycle window, run to
    a fixed horizon.  The hogs are mostly token-blocked, so regulator
    checks, retries and re-arbitration dominate; the DRAM queue stays
    shallow."""
    peak = zcu102(num_accels=0).peak_bytes_per_cycle
    spec = _share_spec("tightly_coupled", 0.10, 256, peak)
    config = zcu102(num_accels=4, accel_regulator=spec, seed=seed)
    return Sim(_stagger(config, rng), size.fine_horizon, False)


def _mixed_rw(rng: random.Random, seed: int, size: Size) -> Sim:
    """The ``video_pipeline`` scenario with MemGuard at 25% per aggressor
    over 100k-cycle periods, run until the parser is done: writes beside
    reads and strided row conflicts take the turnaround and row-miss
    paths, and regulation is coarse-period and cheap."""
    peak = make_scenario("video_pipeline").peak_bytes_per_cycle
    spec = _share_spec("memguard", 0.25, 100_000, peak)
    config = make_scenario(
        "video_pipeline",
        regulators={name: spec for name in ("decoder", "encoder", "scaler")},
        seed=seed,
    )
    config = config.with_masters(
        replace(m, work=size.mixed_accesses) if m.critical else m
        for m in config.masters
    )
    return Sim(_stagger(config, rng), DEFAULT_MAX_CYCLES, True)


#: Workload name -> builder of one simulation of its batch.
WORKLOADS: Dict[str, Callable[[random.Random, int, Size], Sim]] = {
    "hog_contention": _hog_contention,
    "fine_regulation": _fine_regulation,
    "mixed_rw": _mixed_rw,
}


def batch(workload: str, seed: int, size: Size = FULL) -> List[Sim]:
    """The simulations of ``workload``'s batch for ``seed``."""
    slot = seed_slot(seed)
    build = WORKLOADS[workload]
    return [
        build(random.Random(f"{workload}/{slot}/{index}"),
              slot * size.sims + index + 1, size)
        for index in range(size.sims)
    ]


def seed_slot(seed: int) -> int:
    """The input set a benchmark seed selects."""
    return seed % SEED_SLOTS


def digest(result: PlatformResult) -> str:
    """SHA-256 of the run summary as canonical JSON."""
    text = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def invariant_violations(sim: Sim, result: PlatformResult) -> List[str]:
    """Model invariants every simulation of the benchmark must keep."""
    problems = []
    if sim.stop_when_critical_done:
        for name in result.platform.critical_names:
            if result.master(name).finished_at != result.elapsed:
                problems.append(f"critical master {name} did not finish the run")
    for spec in sim.config.masters:
        regulator = spec.regulator
        if regulator is None or regulator.kind != "tightly_coupled":
            continue
        achieved = result.master(spec.name).bandwidth_bytes_per_cycle
        configured = regulator.bandwidth_bytes_per_cycle()
        if achieved > configured:
            problems.append(
                f"{spec.name} moved {achieved:.4f} B/cycle, "
                f"configured {configured:.4f}"
            )
    completed = sum(m.completed for m in result.masters.values())
    if completed > result.dram.serviced:
        problems.append(
            f"ports completed {completed} transactions, "
            f"DRAM serviced {result.dram.serviced}"
        )
    return problems
