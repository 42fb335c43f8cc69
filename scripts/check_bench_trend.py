#!/usr/bin/env python
"""Kernel-throughput trend gate for CI.

Compares the newest ``kernel_throughput`` record in
``BENCH_runner.json`` against the previous one and fails when the
event queue's scheduler-stress rate (``heap_events_s``) regressed by
more than ``--threshold`` (default 15%).  Other fields of older
records (such as the ``calendar_events_s`` rate of the removed
calendar-queue backend) are ignored.  The smoke benchmark appends one
such record per run, so the log is the kernel's performance trajectory
across PRs; this gate turns a silent drop in that trajectory into a
red build instead of a note someone may read later.

The comparison is record-over-record within one file, not an absolute
floor: the log tracks dev machines, and absolute events/s cannot gate
arbitrary CI boxes.  Runs with fewer than two records pass with a
note (a fresh log has no trend yet).

Usage::

    python scripts/check_bench_trend.py [--file BENCH_runner.json] \
        [--threshold 0.15]

Exit code 0 = no regression beyond the threshold.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))

#: Rate fields of a ``kernel_throughput`` record the gate judges.
RATE_KEYS = ("heap_events_s",)


def find_regressions(history, threshold):
    """Newest-vs-previous comparison of the throughput records.

    Returns ``(regressions, previous, newest)`` where ``regressions``
    is a list of ``(key, old, new, drop)`` tuples; ``previous`` and
    ``newest`` are ``None`` when the file holds fewer than two
    ``kernel_throughput`` records.
    """
    records = [
        r
        for r in history
        if isinstance(r, dict) and r.get("kind") == "kernel_throughput"
    ]
    if len(records) < 2:
        return [], None, None
    previous, newest = records[-2], records[-1]
    regressions = []
    for key in RATE_KEYS:
        old, new = previous.get(key), newest.get(key)
        if not old or new is None:
            continue
        drop = 1.0 - new / old
        if drop > threshold:
            regressions.append((key, old, new, drop))
    return regressions, previous, newest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--file",
        default=os.path.join(_HERE, "..", "BENCH_runner.json"),
        help="timing log to check (JSON list)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="allowed fractional drop vs the previous record",
    )
    args = parser.parse_args(argv)

    path = os.path.abspath(args.file)
    if not os.path.exists(path):
        print(f"bench trend: no log at {path}; nothing to gate")
        return 0
    try:
        with open(path) as fh:
            history = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"FAIL: cannot read {path}: {exc}", file=sys.stderr)
        return 1
    if not isinstance(history, list):
        print(f"FAIL: {path} is not a JSON list", file=sys.stderr)
        return 1

    regressions, previous, newest = find_regressions(history, args.threshold)
    if previous is None:
        print(
            "bench trend: fewer than two kernel_throughput records; "
            "no trend to gate yet"
        )
        return 0

    print(
        f"bench trend: {previous.get('timestamp')} -> "
        f"{newest.get('timestamp')} (threshold {args.threshold:.0%})"
    )
    for key in RATE_KEYS:
        old, new = previous.get(key), newest.get(key)
        if not old or new is None:
            continue
        print(f"bench trend: {key} {old:,} -> {new:,} ({new / old - 1.0:+.1%})")
    if regressions:
        for key, old, new, drop in regressions:
            print(
                f"FAIL: {key} regressed {drop:.1%} "
                f"({old:,} -> {new:,} events/s)",
                file=sys.stderr,
            )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
