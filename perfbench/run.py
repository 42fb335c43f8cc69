"""Simulator benchmark: host throughput on the paper's configurations.

Run from the root of a checkout::

    python3 perfbench/run.py --workload hog_contention --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  Each metric is printed on its own line with its unit;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark's own tests run with ``python3 -m pytest perfbench/tests``.

The simulator is imported from ``src/`` of the same checkout; without
it the benchmark exits with status 2 and prints no result.  Every
``REPRO_*`` variable is removed from the environment before the
simulator is imported, so a knob exported in the shell cannot change
what is measured.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)

    from perfbench import bench
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    report = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, value in report.metrics.items():
        print(f"{args.workload:<16} {name:<36} {value:>16.6g} {report.units[name]}")
    print(
        f"{args.workload:<16} {'raw_wall_s':<36} {report.raw_wall_s:>16.6g} s "
        f"(before normalization; calibration pass {report.calibration_s:.4g} s)"
    )
    print(
        f"{args.workload:<16} {'failed_frac':<36} "
        f"{report.failed / report.attempted:>16.6g} ratio "
        f"({report.failed} of {report.attempted} simulations)"
    )
    print(
        f"{args.workload:<16} kernel backend={report.kernel['backend']} "
        f"dispatch_mode={report.kernel['dispatch_mode']} "
        f"auto_promotions={report.kernel['auto_promotions']} "
        f"batch_promotions={report.kernel['batch_promotions']}"
    )
    for problem in report.problems[:20]:
        print(f"{args.workload:<16} FAILED {problem}")
    print(report.result_line())
    return 0


if __name__ == "__main__":
    sys.exit(main())
