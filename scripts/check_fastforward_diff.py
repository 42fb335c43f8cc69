#!/usr/bin/env python
"""Fast-forward differential gate for CI.

Runs a reduced regulation sweep -- E2-style tightly-coupled points on
the standard platform, E3-style window-granularity points, plus the
open-loop steady-streaming scenarios the macro-stepper targets -- with
``REPRO_FASTFORWARD`` off and on, and fails unless every scenario's
full result table is byte-identical across the two runs.  The engine's whole contract is "faster, not
different": any analytic shortcut that diverges from the
event-accurate kernel must turn the build red.

Engagement is asserted too: on the steady scenarios the engine must
actually macro-step (``ff_regions > 0``), otherwise the identity
check silently passes on a detector that declines everything.

Usage::

    PYTHONPATH=src python scripts/check_fastforward_diff.py

Exit code 0 = byte-identical everywhere and engaged where expected.
"""

from __future__ import annotations

import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(_HERE, "..", "src"))
sys.path.insert(0, os.path.join(_HERE, ".."))

from repro.regulation.factory import RegulatorSpec  # noqa: E402
from repro.sim.kernel import FASTFORWARD_ENV  # noqa: E402
from repro.soc.experiment import PlatformResult  # noqa: E402
from repro.soc.platform import MasterSpec, Platform, PlatformConfig  # noqa: E402
from repro.soc.presets import zcu102  # noqa: E402

PEAK = 16.0

#: Horizon of the open-loop steady scenarios (cycles).
STEADY_HORIZON = 60_000

#: Reduced E2 points: two shares at the paper's default window.
E2_SHARES = (0.05, 0.20)

#: Reduced E3 points: one share across two window granularities.
E3_WINDOWS = (256, 2048)


def _tc(share, window):
    return RegulatorSpec(
        kind="tightly_coupled",
        window_cycles=window,
        budget_bytes=max(1, round(share * PEAK * window)),
    )


def _steady(num_streams, regulator):
    masters = tuple(
        MasterSpec(
            name=f"olp{i}",
            workload="open_loop_stream",
            region_base=0x1000_0000 + i * (4 << 20),
            region_extent=4 << 20,
            regulator=regulator,
        )
        for i in range(num_streams)
    )
    return PlatformConfig(masters=masters, seed=3)


def scenarios():
    """``(label, config, horizon, stop_when_critical_done, must_engage)``."""
    rows = [
        (
            "steady_tc_x1",
            _steady(1, _tc(0.01, 1024)),
            STEADY_HORIZON,
            False,
            True,
        ),
        (
            "steady_tc_x2",
            _steady(2, _tc(0.005, 2048)),
            STEADY_HORIZON,
            False,
            True,
        ),
        (
            "steady_memguard",
            _steady(
                1,
                RegulatorSpec(
                    kind="memguard",
                    period_cycles=2048,
                    budget_bytes=max(1, round(0.01 * PEAK * 2048)),
                ),
            ),
            STEADY_HORIZON,
            False,
            True,
        ),
    ]
    for share in E2_SHARES:
        rows.append(
            (
                f"e2_share_{share}",
                zcu102(num_accels=2, cpu_work=800, accel_regulator=_tc(share, 1024)),
                400_000,
                True,
                False,
            )
        )
    for window in E3_WINDOWS:
        rows.append(
            (
                f"e3_window_{window}",
                zcu102(num_accels=2, cpu_work=800, accel_regulator=_tc(0.10, window)),
                400_000,
                True,
                False,
            )
        )
    return rows


def run_table(config, fastforward, horizon, stop):
    """One run -> ``(summary json, ff_regions)``."""
    saved = os.environ.get(FASTFORWARD_ENV)
    os.environ[FASTFORWARD_ENV] = "1" if fastforward else "0"
    try:
        platform = Platform(config)
        elapsed = platform.run(horizon, stop_when_critical_done=stop)
        table = PlatformResult(platform, elapsed).summary().to_json()
        regions = platform.sim.kernel_stats().get("ff_regions", 0)
    finally:
        if saved is None:
            os.environ.pop(FASTFORWARD_ENV, None)
        else:
            os.environ[FASTFORWARD_ENV] = saved
    return table, regions


def main() -> int:
    failures = 0
    for label, config, horizon, stop, must_engage in scenarios():
        reference, _ = run_table(config, False, horizon, stop)
        table, engaged = run_table(config, True, horizon, stop)
        identical = table == reference
        if not identical:
            print(
                f"FAIL: {label} [ff=on] diverges from the event-accurate "
                "reference",
                file=sys.stderr,
            )
        status = "identical" if identical else "DIVERGED"
        print(
            f"fastforward diff: {label}: {status}, "
            f"{engaged} regions macro-stepped"
        )
        if not identical:
            failures += 1
        if must_engage and engaged == 0:
            print(
                f"FAIL: {label} never engaged the fast-forward engine "
                "(identity check is vacuous)",
                file=sys.stderr,
            )
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
