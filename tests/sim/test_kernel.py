"""Unit tests for the Simulator event loop."""

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import Phase, Simulator


class TestScheduling:
    def test_schedule_and_run(self, sim):
        fired = []
        sim.schedule(5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5]
        assert sim.now == 5

    def test_schedule_zero_delay(self, sim):
        fired = []
        sim.schedule(0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [0]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_absolute(self, sim):
        fired = []
        sim.schedule_at(42, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [42]

    def test_schedule_at_past_rejected(self, sim):
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5, lambda: None)

    def test_chained_events(self, sim):
        fired = []

        def first():
            fired.append(("first", sim.now))
            sim.schedule(3, second)

        def second():
            fired.append(("second", sim.now))

        sim.schedule(2, first)
        sim.run()
        assert fired == [("first", 2), ("second", 5)]

    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        ev = sim.schedule(5, lambda: fired.append(1))
        ev.cancel()
        sim.run()
        assert fired == []


class TestRunBounds:
    def test_until_stops_clock_at_bound(self, sim):
        fired = []
        sim.schedule(100, lambda: fired.append(1))
        end = sim.run(until=50)
        assert end == 50
        assert fired == []
        assert sim.pending_events == 1

    def test_until_resumes(self, sim):
        fired = []
        sim.schedule(100, lambda: fired.append(sim.now))
        sim.run(until=50)
        sim.run(until=150)
        assert fired == [100]

    def test_until_with_empty_queue_advances_clock(self, sim):
        end = sim.run(until=77)
        assert end == 77
        assert sim.now == 77

    def test_event_exactly_at_until_fires(self, sim):
        fired = []
        sim.schedule(50, lambda: fired.append(1))
        sim.run(until=50)
        assert fired == [1]


class TestIntraCyclePhases:
    def test_phases_order_within_cycle(self, sim):
        order = []
        sim.schedule(5, lambda: order.append("stats"), priority=Phase.STATS)
        sim.schedule(5, lambda: order.append("reg"), priority=Phase.REGULATOR)
        sim.schedule(5, lambda: order.append("arb"), priority=Phase.ARBITER)
        sim.schedule(5, lambda: order.append("master"), priority=Phase.MASTER)
        sim.run()
        assert order == ["reg", "master", "arb", "stats"]


class TestStopAndFinalize:
    def test_request_stop_ends_run(self, sim):
        fired = []

        def stopper():
            fired.append(sim.now)
            sim.request_stop()

        sim.schedule(5, stopper)
        sim.schedule(10, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5]
        assert sim.pending_events == 1

    def test_finalizers_called_with_end_time(self, sim):
        seen = []
        sim.add_finalizer(lambda now: seen.append(now))
        sim.schedule(9, lambda: None)
        sim.run()
        assert seen == [9]

    def test_step_single_event(self, sim):
        fired = []
        sim.schedule(3, lambda: fired.append(1))
        sim.schedule(7, lambda: fired.append(2))
        assert sim.step() == 3
        assert fired == [1]
        assert sim.step() == 7
        assert sim.step() is None

    def test_run_reentry_rejected(self, sim):
        def evil():
            sim.run()

        sim.schedule(1, evil)
        with pytest.raises(SimulationError):
            sim.run()
