"""Elle-style transactional consistency verification.

``record -> check -> replay``: a :class:`HistoryRecorder` hooked into
the transaction coordinator / SQL session captures structured
operation histories; :func:`check` reconstructs per-key version orders,
builds the wr/ww/rw dependency graph, and reports isolation anomalies
(G0/G1a/G1b/G1c/G-single/G2, lost updates) plus real-time recency and
staleness-bound violations; :class:`VerifyHarness` generates seeded
random workloads under the chaos nemesis schedules.  Histories and
reports round-trip through JSON deterministically, so any violation is
replayable offline from a dumped file:

    python -m repro verify --scenario region-blackout --seed 3
    python -m repro verify --check history.json
"""

from .checker import Anomaly, VerifyReport, check
from .generator import (
    CLOCK_SCENARIOS,
    CPUT_ABLATION_SCENARIO,
    OCC_ABLATION_SCENARIO,
    OCC_SWEEP_SCENARIOS,
    REAPPLY_ABLATION_SCENARIO,
    VERIFY_ONLY_SCENARIOS,
    VERIFY_SCENARIOS,
    VerifyHarness,
    VerifyResult,
    run_verify,
)
from .history import RecordedOp, RecordedTxn, VerifyHistory
from .recorder import HistoryRecorder

__all__ = [
    "Anomaly", "VerifyReport", "check",
    "VerifyHarness", "VerifyResult", "run_verify", "VERIFY_SCENARIOS",
    "VERIFY_ONLY_SCENARIOS", "CLOCK_SCENARIOS", "OCC_SWEEP_SCENARIOS",
    "OCC_ABLATION_SCENARIO", "REAPPLY_ABLATION_SCENARIO",
    "CPUT_ABLATION_SCENARIO",
    "RecordedOp", "RecordedTxn", "VerifyHistory",
    "HistoryRecorder",
]
