"""Unit tests for per-bank DRAM state."""

from repro.dram.bank import Bank
from repro.dram.timing import DramTiming

TIMING = DramTiming(t_cas=10, t_rcd=12, t_rp=14)


class TestClassification:
    def test_first_access_is_miss(self):
        bank = Bank(0)
        assert bank.classify(5) == "miss"

    def test_same_row_is_hit(self):
        bank = Bank(0)
        bank.perform_access(5, 0, TIMING)
        assert bank.classify(5) == "hit"

    def test_other_row_is_conflict(self):
        bank = Bank(0)
        bank.perform_access(5, 0, TIMING)
        assert bank.classify(6) == "conflict"


class TestTiming:
    def test_access_latency_matches_class(self):
        bank = Bank(0)
        assert bank.access_latency(1, TIMING) == TIMING.miss_latency
        bank.perform_access(1, 0, TIMING)
        assert bank.access_latency(1, TIMING) == TIMING.hit_latency
        assert bank.access_latency(2, TIMING) == TIMING.conflict_latency

    def test_perform_access_returns_data_ready_time(self):
        bank = Bank(0)
        done = bank.perform_access(1, 100, TIMING)
        assert done == 100 + TIMING.miss_latency
        assert bank.ready_at() == done

    def test_busy_bank_serializes(self):
        bank = Bank(0)
        first_done = bank.perform_access(1, 0, TIMING)
        second_done = bank.perform_access(1, first_done, TIMING)
        assert second_done == first_done + TIMING.hit_latency


class TestStatsAndRefresh:
    def test_counters(self):
        bank = Bank(0)
        bank.perform_access(1, 0, TIMING)   # miss
        bank.perform_access(1, 50, TIMING)  # hit
        bank.perform_access(2, 99, TIMING)  # conflict
        assert (bank.hits, bank.misses, bank.conflicts) == (1, 1, 1)
        assert bank.accesses == 3
        assert bank.hit_rate == 1 / 3

    def test_hit_rate_empty(self):
        assert Bank(0).hit_rate == 0.0

    def test_precharge_closes_row(self):
        bank = Bank(0)
        bank.perform_access(1, 0, TIMING)
        bank.precharge_all(100, TIMING)
        assert bank.open_row is None
        assert bank.ready_at() >= 100 + TIMING.t_rp
        assert bank.classify(1) == "miss"

    def test_precharge_idle_bank_is_noop(self):
        bank = Bank(0)
        bank.precharge_all(100, TIMING)
        assert bank.ready_at() == 0

    def test_hold_until_only_delays(self):
        bank = Bank(0)
        done = bank.perform_access(1, 0, TIMING)
        bank.hold_until(done - 1)
        assert bank.ready_at() == done
        bank.hold_until(done + 88)
        assert bank.ready_at() == done + 88
        assert bank.open_row == 1

    def test_given_kind_is_not_reclassified(self):
        # The controller classifies once and passes the class along;
        # the outcome must equal the bank's own classification.
        for rows in ((1,), (1, 1), (1, 2)):
            own, given = Bank(0), Bank(1)
            for start, row in enumerate(rows):
                kind = given.classify(row)
                assert given.perform_access(
                    row, start * 100, TIMING, kind=kind
                ) == own.perform_access(row, start * 100, TIMING)
            assert (given.hits, given.misses, given.conflicts) == (
                own.hits, own.misses, own.conflicts
            )
