"""Regenerate ``reference.json``: the expected digest of every simulation.

The benchmark counts a simulation as failed when its summary digest
differs from the one stored here, so regenerate only when a change is
meant to alter simulated results, and say so in the change.  Run from
the root of a checkout (takes several minutes)::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]

    from perfbench.bench import REFERENCE_PATH, simulate
    from perfbench.workloads import SEED_SLOTS, SIZES, WORKLOADS, batch, digest

    table = {}
    for size in SIZES.values():
        table[size.name] = {}
        for workload in WORKLOADS:
            table[size.name][workload] = [
                [digest(simulate(sim)[0]) for sim in batch(workload, slot, size)]
                for slot in range(SEED_SLOTS)
            ]
            print(f"{size.name} {workload}: {SEED_SLOTS} slots", flush=True)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
