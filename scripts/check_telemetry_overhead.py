#!/usr/bin/env python
"""Telemetry-overhead gate for CI.

Runs the E22 ``scheduler_stress`` probe (the event queue's headline
throughput microbenchmark) under ``REPRO_TELEMETRY=on`` and ``off``
in the same process and fails when the *enabled* configuration is
more than ``--tolerance`` slower than the disabled one.  The kernel
hot path carries no push-style instrumentation at all (see
``docs/observability.md``); push-style overhead creeping onto the
dispatch path shows up as the enabled run falling behind the
disabled one, which is exactly the gap this gate rejects.

Same-run comparison is deliberate: the absolute events/s figures in
``BENCH_runner.json`` track dev machines and cannot gate CI boxes.
The measurement is *paired*: samples are interleaved (on, off, on,
off, ...) after a discarded warm-up, each adjacent pair yields an
on/off ratio, and the gate judges the **median pair ratio** -- drift
(frequency scaling, noisy neighbours) hits both halves of a pair
almost equally and cancels in the ratio, so shared-box noise does
not masquerade as telemetry overhead.

Usage::

    PYTHONPATH=src python scripts/check_telemetry_overhead.py \
        [--repeats 5] [--tolerance 0.02]

Exit code 0 = within tolerance.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(_HERE, "..", "src"))
sys.path.insert(0, os.path.join(_HERE, ".."))

from benchmarks.bench_e22_kernel import _bench_scheduler_stress  # noqa: E402
from repro.telemetry import (  # noqa: E402
    TELEMETRY_ENV,
    MetricsRegistry,
    set_registry,
)


def _sample(mode: str) -> float:
    """One probe rate with telemetry forced to ``mode``."""
    os.environ[TELEMETRY_ENV] = mode
    # Rebuild the process-wide registry so it re-reads the env var.
    set_registry(MetricsRegistry())
    return _bench_scheduler_stress()[0]


def _measure(repeats: int) -> "tuple":
    """Interleaved paired measurement.

    Returns ``(ratio, rate_on, rate_off)``: the median on/off ratio
    over ``repeats`` adjacent pairs plus the best-of rates (the
    latter only for display -- the gate judges the paired ratio).
    """
    _sample("off")  # discarded warm-up
    ratios = []
    rates = {"on": [], "off": []}
    for _ in range(repeats):
        rate_on = _sample("on")
        rate_off = _sample("off")
        rates["on"].append(rate_on)
        rates["off"].append(rate_off)
        ratios.append(rate_on / rate_off)
    return statistics.median(ratios), max(rates["on"]), max(rates["off"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=5,
                        help="interleaved on/off sample pairs (median ratio)")
    parser.add_argument("--tolerance", type=float, default=0.02,
                        help="allowed fractional slowdown of 'on' vs 'off'")
    args = parser.parse_args(argv)

    previous = os.environ.get(TELEMETRY_ENV)
    try:
        ratio, rate_on, rate_off = _measure(args.repeats)
    finally:
        if previous is None:
            os.environ.pop(TELEMETRY_ENV, None)
        else:
            os.environ[TELEMETRY_ENV] = previous
        set_registry(MetricsRegistry())

    print(
        f"telemetry overhead: on {rate_on:,.0f} ev/s, "
        f"off {rate_off:,.0f} ev/s (median paired on/off {ratio:.3f}, "
        f"tolerance {args.tolerance:.0%})"
    )
    if ratio < 1.0 - args.tolerance:
        print(
            "FAIL: enabled-telemetry kernel throughput regressed "
            f"{1.0 - ratio:.1%} vs disabled (same run, paired)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
