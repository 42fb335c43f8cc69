"""Reduced-size runs of every workload against the stored digests."""

import pytest

from repro.axi.port import MasterPort
from repro.sim.kernel import Simulator

from perfbench.bench import Checker, load_reference, run_batch
from perfbench.tracing import LayerTracer
from perfbench.workloads import SEED_SLOTS, SMOKE, WORKLOADS, batch, seed_slot


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [0, 7])
def test_smoke_batch_matches_reference(workload, seed):
    sims = batch(workload, seed, SMOKE)
    checker = Checker(load_reference(workload, seed, SMOKE))
    run_batch(sims, checker)
    assert checker.problems == []
    assert (checker.attempted, checker.failed) == (SMOKE.sims, 0)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_batch_matches_reference_and_restores_classes(workload):
    head, schedule = MasterPort.head, Simulator.schedule
    sims = batch(workload, 3, SMOKE)
    checker = Checker(load_reference(workload, 3, SMOKE))
    tracer = LayerTracer()
    records = run_batch(sims, checker, tracer)
    assert checker.problems == []
    assert tracer.events == sum(r.kernel["events_dispatched"] for r in records)
    assert (MasterPort.head, Simulator.schedule) == (head, schedule)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seeds_give_different_inputs(workload):
    assert batch(workload, 0, SMOKE) == batch(workload, 0, SMOKE)
    assert batch(workload, 0, SMOKE) != batch(workload, 1, SMOKE)
    assert load_reference(workload, 0, SMOKE) != load_reference(workload, 1, SMOKE)


def test_seed_slots_wrap():
    assert seed_slot(SEED_SLOTS + 5) == seed_slot(5) == 5
    assert seed_slot(-1) == SEED_SLOTS - 1
