"""Elle-style transactional consistency verification.

``record -> check -> replay``: a :class:`HistoryRecorder` hooked into
the transaction coordinator / SQL session captures structured
operation histories; :func:`check` reconstructs per-key version orders,
builds the wr/ww/rw dependency graph, and reports isolation anomalies
(G0/G1a/G1b/G1c/G-single/G2, lost updates) plus real-time recency and
staleness-bound violations; :class:`VerifyHarness` generates seeded
random workloads under the nemeses and ablations of the
:data:`SCENARIOS` table — the one table of fault scenarios, each row
also judged by its own audit (keyspace structure, placement after
repair, clock fences).  Histories and reports round-trip through JSON
deterministically, so any violation is replayable offline from a
dumped file:

    python -m repro verify --scenario region-blackout --seed 3
    python -m repro verify --scenario repair --seed 0
    python -m repro verify --check history.json
"""

from .checker import Anomaly, VerifyReport, check
from .generator import (
    SCENARIOS,
    VerifyHarness,
    VerifyResult,
    VerifyScenario,
    run_verify,
)
from .history import RecordedOp, RecordedTxn, VerifyHistory
from .recorder import HistoryRecorder

__all__ = [
    "Anomaly", "VerifyReport", "check",
    "VerifyHarness", "VerifyResult", "VerifyScenario", "SCENARIOS",
    "run_verify",
    "RecordedOp", "RecordedTxn", "VerifyHistory",
    "HistoryRecorder",
]
