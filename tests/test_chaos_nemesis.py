"""Nemesis scenario tests: timed fault schedules against a
REGION-survivable range, audited Jepsen-style.

The quick tests run one seed of the flagship scenarios as part of
tier 1.  The exhaustive all-scenarios x 5-seeds sweep is marked
``chaos`` and excluded by default — run it with ``pytest -m chaos``
or ``python -m repro sweep --kinds chaos,verify --seeds 5``.
"""

import pytest

from repro.chaos import (
    SCENARIOS,
    availability_timeline,
    check_history,
    run_scenario,
)
from repro.chaos.invariants import OK, History, OpRecord


class TestInvariantChecker:
    def test_clean_history_passes(self):
        history = History()
        history.record(OpRecord("c1", "inc", "k", 0.0, 10.0, OK))
        history.record(OpRecord("c1", "read", "k", 20.0, 30.0, OK, value=1))
        report = check_history(history, {"k": 1})
        assert report.ok

    def test_lost_write_detected(self):
        history = History()
        for i in range(3):
            history.record(OpRecord("c1", "inc", "k", i * 10.0,
                                    i * 10.0 + 5.0, OK))
        report = check_history(history, {"k": 2})
        assert not report.ok
        assert any("lost writes" in v for v in report.violations)

    def test_dirty_read_detected(self):
        history = History()
        history.record(OpRecord("c1", "inc", "k", 0.0, 10.0, OK))
        history.record(OpRecord("c2", "read", "k", 20.0, 30.0, OK, value=5))
        report = check_history(history, {"k": 5})
        assert any("dirty read" in v for v in report.violations)

    def test_stale_strong_read_detected(self):
        history = History()
        history.record(OpRecord("c1", "inc", "k", 0.0, 10.0, OK))
        history.record(OpRecord("c2", "read", "k", 20.0, 30.0, OK, value=0))
        report = check_history(history, {"k": 1})
        assert any("stale strong read" in v for v in report.violations)

    def test_stale_read_exempt_from_recency(self):
        history = History()
        history.record(OpRecord("c1", "inc", "k", 0.0, 10.0, OK))
        history.record(OpRecord("c2", "read", "k", 20.0, 30.0, OK,
                                value=0, stale=True))
        report = check_history(history, {"k": 1})
        assert report.ok


class TestScenariosQuick:
    def test_region_blackout_recovers_without_manual_transfer(self):
        """SURVIVE REGION FAILURE + a home-region blackout: the lease
        must move automatically (DistSender-triggered failover, no
        operator transfer in the scenario) and every invariant holds."""
        result = run_scenario("region-blackout", seed=0)
        assert result.ok, result.report.render()
        assert result.stats["failovers"] >= 1
        counts = result.history.counts()
        assert counts[OK] > 0

    def test_asym_partition_invariants_hold(self):
        """One-way region cut (acks lost, appends flow): the hardest
        scenario for the Raft/lease stack — no acked write may vanish."""
        result = run_scenario("asym-partition", seed=0)
        assert result.ok, result.report.render()

    def test_crash_restart_invariants_hold(self):
        result = run_scenario("crash-restart", seed=0)
        assert result.ok, result.report.render()

    def test_timeline_records_inject_and_heal(self):
        result = run_scenario("crash-restart", seed=1)
        actions = [action for _t, action, _name in result.nemesis_timeline]
        assert "inject" in actions
        assert "heal" in actions


class TestDeterminism:
    """Regression guard for DES reproducibility: the entire simulated
    run — operation history, invariant audit, availability timeline —
    must be a pure function of (scenario, seed).  Replica repair runs
    concurrently with client traffic and must not break this."""

    @pytest.mark.parametrize("name", ["crash-restart", "kill-node-repair"])
    def test_same_seed_twice_is_identical(self, name):
        first = run_scenario(name, seed=1)
        second = run_scenario(name, seed=1)
        assert first.report.violations == second.report.violations
        assert first.report.checks_run == second.report.checks_run
        assert availability_timeline(first.history) == \
            availability_timeline(second.history)
        assert first.nemesis_timeline == second.nemesis_timeline
        assert first.to_json() == second.to_json()

    def test_different_seeds_diverge(self):
        # The seed must actually steer the run (otherwise the identity
        # check above would be vacuous).
        first = run_scenario("crash-restart", seed=1)
        second = run_scenario("crash-restart", seed=2)
        assert [op.end_ms for op in first.history.ops] != \
            [op.end_ms for op in second.history.ops]


@pytest.mark.chaos
@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("seed", range(5))
def test_chaos_sweep(name, seed):
    """Exhaustive sweep: every built-in scenario must satisfy every
    invariant across 5 seeds (the PR's acceptance bar)."""
    result = run_scenario(name, seed)
    assert result.ok, f"{name} seed={seed}\n{result.report.render()}"
