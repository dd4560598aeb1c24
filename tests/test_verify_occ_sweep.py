"""Tier-2 differential verification sweep for the epoch-OCC backend.

Run with ``pytest -m verify_occ``.  The same Elle-style checker that
audits the CRDB pipeline runs the identical seeded workloads and
nemesis schedules against :class:`~repro.txn.epoch.EpochOccProtocol`;
every history must come back anomaly-free.  The honest-falsification
half, the validation-off ``occ-novalidate`` ablation, is a case of
``tests/test_verify_scenarios.py::test_ablation_is_convicted`` under
this marker: it only passes if the checker *does* convict the blind
epoch commits of lost updates / write-order anomalies — proving the
checker can see exactly the bugs validation exists to prevent.
"""

import pytest

from repro.verify import SCENARIOS, run_verify

SEEDS = range(5)

pytestmark = pytest.mark.verify_occ


@pytest.mark.parametrize("scenario", [
    name for name, row in SCENARIOS.items() if "epoch-occ" in row.sweeps])
@pytest.mark.parametrize("seed", SEEDS)
def test_epoch_occ_history_is_anomaly_free(scenario, seed):
    result = run_verify(scenario, seed=seed, protocol="epoch-occ")
    assert result.ok, (
        f"{scenario} seed={seed} (epoch-occ) found anomalies:\n"
        f"{result.report.render()}\n"
        f"--- replayable history ---\n{result.history.dumps()}")
    assert result.history.meta.get("protocol") == "epoch-occ"


def test_occ_run_is_deterministic():
    a = run_verify("crash-restart", seed=0, protocol="epoch-occ")
    b = run_verify("crash-restart", seed=0, protocol="epoch-occ")
    assert a.history.dumps() == b.history.dumps()
    assert a.report.dumps() == b.report.dumps()
