"""Make the simulator source importable and clear its environment knobs."""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

for _name in [n for n in os.environ if n.startswith("REPRO_")]:
    del os.environ[_name]
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)
