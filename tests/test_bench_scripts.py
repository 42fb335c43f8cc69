"""Tests for the CI gate scripts around the timing log.

Covers the kernel-throughput trend gate (``check_bench_trend``) and
the smoke benchmark's corrupt-history quarantine (``load_history``):
both guard ``BENCH_runner.json``, the performance trajectory that
accumulates across PRs.
"""

import json
import os

from scripts.bench_smoke import load_history
from scripts.check_bench_trend import find_regressions
from scripts.check_bench_trend import main as trend_main


def _record(heap, stamp="t"):
    return {
        "schema": 8,
        "kind": "kernel_throughput",
        "heap_events_s": heap,
        "timestamp": stamp,
    }


class TestFindRegressions:
    def test_too_few_records(self):
        assert find_regressions([], 0.15) == ([], None, None)
        assert find_regressions([_record(100)], 0.15) == ([], None, None)

    def test_other_kinds_ignored(self):
        history = [
            {"kind": "runner_sweep"},
            _record(100_000),
            {"kind": "batch_dispatch"},
        ]
        assert find_regressions(history, 0.15) == ([], None, None)

    def test_within_threshold_passes(self):
        history = [_record(100_000), _record(90_000)]
        regressions, previous, newest = find_regressions(history, 0.15)
        assert regressions == []
        assert previous["heap_events_s"] == 100_000
        assert newest["heap_events_s"] == 90_000

    def test_improvement_passes(self):
        history = [_record(100_000), _record(150_000)]
        assert find_regressions(history, 0.15)[0] == []

    def test_regression_detected_per_backend(self):
        history = [_record(100_000), _record(80_000)]
        regressions, _, _ = find_regressions(history, 0.15)
        assert [r[0] for r in regressions] == ["heap_events_s"]
        key, old, new, drop = regressions[0]
        assert (old, new) == (100_000, 80_000)
        assert abs(drop - 0.20) < 1e-9

    def test_newest_vs_previous_only(self):
        # An old regression that already recovered must not re-fire.
        history = [
            _record(100_000),
            _record(50_000),
            _record(95_000),
        ]
        regressions, previous, _ = find_regressions(history, 0.15)
        assert regressions == []
        assert previous["heap_events_s"] == 50_000

    def test_legacy_calendar_rate_ignored(self):
        # Records written while a calendar-queue backend existed carry
        # its rate; a drop there is no longer judged.
        legacy = dict(_record(100_000), schema=7, calendar_events_s=200_000)
        newer = dict(_record(99_000), schema=7, calendar_events_s=50_000)
        assert find_regressions([legacy, newer], 0.15)[0] == []

    def test_missing_keys_tolerated(self):
        history = [
            {"kind": "kernel_throughput", "heap_events_s": 100_000},
            {"kind": "kernel_throughput", "heap_events_s": 99_000},
        ]
        assert find_regressions(history, 0.15)[0] == []


class TestTrendMain:
    def test_missing_file_passes(self, tmp_path):
        assert trend_main(["--file", str(tmp_path / "absent.json")]) == 0

    def test_unreadable_file_fails(self, tmp_path):
        log = tmp_path / "log.json"
        log.write_text("{not json")
        assert trend_main(["--file", str(log)]) == 1

    def test_regression_fails_and_threshold_is_honoured(self, tmp_path):
        log = tmp_path / "log.json"
        log.write_text(
            json.dumps([_record(100_000), _record(80_000)])
        )
        assert trend_main(["--file", str(log)]) == 1
        assert trend_main(["--file", str(log), "--threshold", "0.25"]) == 0

    def test_clean_trend_passes(self, tmp_path):
        log = tmp_path / "log.json"
        log.write_text(
            json.dumps([_record(100_000), _record(101_000)])
        )
        assert trend_main(["--file", str(log)]) == 0


class TestLoadHistoryQuarantine:
    def test_missing_file(self, tmp_path):
        assert load_history(str(tmp_path / "absent.json")) == ([], None)

    def test_valid_history_kept(self, tmp_path):
        log = tmp_path / "log.json"
        records = [_record(1)]
        log.write_text(json.dumps(records))
        assert load_history(str(log)) == (records, None)

    def test_corrupt_json_quarantined(self, tmp_path):
        log = tmp_path / "log.json"
        log.write_text('[{"truncated": ')
        history, quarantined = load_history(str(log))
        assert history == []
        assert quarantined == str(log) + ".corrupt-1"
        assert not log.exists()
        # The evidence survives verbatim.
        assert open(quarantined).read() == '[{"truncated": '

    def test_non_list_json_quarantined(self, tmp_path):
        log = tmp_path / "log.json"
        log.write_text('{"kind": "not-a-list"}')
        history, quarantined = load_history(str(log))
        assert history == []
        assert os.path.exists(quarantined)

    def test_quarantine_suffix_increments(self, tmp_path):
        log = tmp_path / "log.json"
        (tmp_path / "log.json.corrupt-1").write_text("old junk")
        log.write_text("junk")
        _, quarantined = load_history(str(log))
        assert quarantined == str(log) + ".corrupt-2"
        assert open(quarantined).read() == "junk"
