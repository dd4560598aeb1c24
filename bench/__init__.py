"""The repo benchmark: seven workloads, host-throughput and simulated-latency
metrics, and a shim-traced per-layer ledger.  See ``bench/README.md``.

Importing the package puts ``src/`` on ``sys.path`` so that both
``python3 bench/run.py`` and ``python -m pytest bench`` find ``repro``
without ``PYTHONPATH``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
