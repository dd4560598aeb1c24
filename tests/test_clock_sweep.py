"""Tier-2 clock-fault sweep: the clock rows + the fencing ablation.

Run with ``pytest -m clock``.  The sweep is the honest-falsification
half of the clock-safety subsystem: the *identical* beyond-bound clock
jump must (a) produce real, checker-visible staleness anomalies when
fencing is disabled, and (b) produce zero anomalies — at the measured
cost of fencing the victim and repairing around it — when the defense
is on.  If (a) ever comes back clean the defense is untestable and the
fenced runs prove nothing.
"""

import pytest

from repro.verify import run_verify

pytestmark = pytest.mark.clock

SEEDS = range(3)

CHAOS_CLOCK_SCENARIOS = [
    "clock-drift", "clock-jump-fence", "clock-freeze-lease"]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", CHAOS_CLOCK_SCENARIOS)
def test_chaos_clock_scenarios_hold_invariants(name, seed):
    result = run_verify(name, seed=seed)
    assert result.ok, f"{name} seed={seed}\n{result.render()}"
    if name == "clock-drift":
        # In-contract drift must never trip the fence.
        assert result.stats["clock_fences"] == 0
    else:
        assert result.stats["clock_fences"] >= 1


@pytest.mark.parametrize("seed", SEEDS)
def test_defended_jump_fences_and_stays_anomaly_free(seed):
    result = run_verify("clock-jump", seed=seed)
    assert result.ok, result.report.render()
    assert not result.report.anomalies
    assert result.stats["clock_fences"] >= 1
    assert result.stats["repair_actions"] >= 1, (
        "the replicate queue must repair around the fenced node")


@pytest.mark.parametrize("seed", SEEDS)
def test_fencing_ablation_surfaces_real_anomalies(seed):
    """The verdict (real-time / staleness anomalies only, at least one)
    is ``test_verify_scenarios.py::test_ablation_is_convicted``'s; this
    is what the row does beside it."""
    result = run_verify("clock-jump-nofence", seed=seed)
    assert result.report.anomalies and result.ok
    assert result.stats["clock_fences"] == 0
    assert result.stats["clock_outliers"] >= 1, (
        "the monitor should still *measure* the outlier it ignores")


@pytest.mark.parametrize("seed", SEEDS)
def test_in_contract_drift_is_invisible(seed):
    result = run_verify("clock-drift", seed=seed)
    assert result.ok, result.report.render()
    assert not result.report.anomalies
    assert result.stats["clock_fences"] == 0
