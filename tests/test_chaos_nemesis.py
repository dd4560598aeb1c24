"""Nemesis scenario tests: timed fault schedules against the verify
harness, judged by the Elle-style checker plus each row's audit.

The quick tests run one seed of the flagship rows as part of tier 1.
The sweep of the rows that lose nodes for good, reshape under a
rebalance queue or fault a clock (seeds 0–4) is marked ``chaos`` and
excluded by default — run it with ``pytest -m chaos`` or
``python -m repro sweep --kinds verify --seeds 5``.
"""

import pytest

from repro.sim.clock import Timestamp
from repro.verify import (RecordedOp, RecordedTxn, VerifyHarness,
                          VerifyHistory, check, run_verify)

#: The rows whose fault schedules only the counter harness ran before
#: the verify table took them over.
NEMESIS_ROWS = ["partition-leaseholder", "kill-node-repair",
                "region-loss-repair", "split-under-fire",
                "clock-jump-fence", "clock-freeze-lease"]


def _op(kind, key, value, version_ms):
    return RecordedOp(kind=kind, key=key, value=value,
                      version_ts=Timestamp(float(version_ms), 0),
                      at_ms=float(version_ms))


def _txn(txn_id, ops, begin_ms, end_ms, mode="strong", requested_ms=None):
    return RecordedTxn(
        txn_id=txn_id, label=f"c{txn_id}", region="us-east1", mode=mode,
        status="committed", begin_ms=begin_ms, end_ms=end_ms,
        commit_ts=Timestamp(float(end_ms), 0) if mode == "strong" else None,
        requested_ts=None if requested_ms is None
        else Timestamp(float(requested_ms), 0), ops=ops)


def _judge(txns, kind="register", final=None):
    """Check a nemesis-shaped history of one key with the checker every
    fault row is judged by."""
    meta = {"scenario": "hand-crafted", "seed": 0,
            "keys": {"t/k": {"kind": kind, "global": False}}}
    return check(VerifyHistory(txns=txns, meta=meta, final=final or {}))


def _types(report):
    return {anomaly.type for anomaly in report.anomalies}


def _init_and_write():
    """The initial value, then a client's write of "c1:1" acked at
    t=10 ms."""
    return [_txn(0, [_op("w", "t/k", "init", 0)], 0.0, 0.0),
            _txn(1, [_op("w", "t/k", "c1:1", 10)], 5.0, 10.0)]


class TestInvariantChecker:
    """The invariants a fault row must keep, as the checker sees them
    in the history the verify clients record."""

    def test_clean_history_passes(self):
        report = _judge(_init_and_write() + [
            _txn(2, [_op("r", "t/k", "c1:1", 10)], 20.0, 30.0)],
            final={"t/k": "c1:1"})
        assert report.ok, report.render()

    def test_lost_write_detected(self):
        appends = [
            _txn(0, [_op("w", "t/k", [], 0)], 0.0, 0.0),
            _txn(1, [_op("r", "t/k", [], 0), _op("w", "t/k", ["a"], 10)],
                 5.0, 10.0),
            _txn(2, [_op("r", "t/k", ["a"], 10),
                     _op("w", "t/k", ["a", "b"], 20)], 15.0, 20.0)]
        report = _judge(appends, kind="list", final={"t/k": ["a"]})
        assert not report.ok
        assert "lost-write" in _types(report)

    def test_dirty_read_detected(self):
        init, write = _init_and_write()
        write.status, write.commit_ts = "aborted", None
        report = _judge([init, write,
                         _txn(2, [_op("r", "t/k", "c1:1", 10)], 20.0, 30.0)])
        assert "G1a" in _types(report)

    def test_stale_strong_read_detected(self):
        report = _judge(_init_and_write() + [
            _txn(2, [_op("r", "t/k", "init", 0)], 20.0, 30.0)])
        assert "stale-strong-read" in _types(report)

    def test_stale_read_exempt_from_recency(self):
        stale = _txn(-1, [_op("r", "t/k", "init", 0)], 20.0, 30.0,
                     mode="exact", requested_ms=5)
        report = _judge(_init_and_write() + [stale])
        assert report.ok, report.render()


class TestScenariosQuick:
    def test_region_blackout_recovers_without_manual_transfer(self):
        """SURVIVE REGION FAILURE + a home-region blackout: the lease
        must move automatically (DistSender-triggered failover, no
        operator transfer in the scenario) and the history stays
        clean."""
        result = run_verify("region-blackout", seed=0)
        assert result.ok, result.render()
        assert result.stats["failovers"] >= 1
        assert result.report.stats["txns_committed"] > 0

    def test_asym_partition_invariants_hold(self):
        """One-way region cut (acks lost, appends flow): the hardest
        schedule for the Raft/lease stack — no acked write may vanish."""
        result = run_verify("asym-partition", seed=0)
        assert result.ok, result.render()

    def test_crash_restart_invariants_hold(self):
        result = run_verify("crash-restart", seed=0)
        assert result.ok, result.render()

    def test_timeline_records_inject_and_heal(self):
        result = run_verify("crash-restart", seed=1)
        actions = [action for _t, action, _name in result.timeline]
        assert "inject" in actions
        assert "heal" in actions
        rendered = result.render()
        assert "<- inject crash:" in rendered
        assert "heal heal-all" in rendered


def _observed(name, seed):
    harness = VerifyHarness(seed)
    return harness, harness.run(scenario=name)


class TestDeterminism:
    """Regression guard for DES reproducibility: the entire simulated
    run — history, verdict, audit, timeline, metrics and spans — must
    be a pure function of (scenario, seed).  Replica repair runs
    concurrently with client traffic and must not break this."""

    @pytest.mark.parametrize("name", ["crash-restart", "kill-node-repair"])
    def test_same_seed_twice_is_identical(self, name):
        first_harness, first = _observed(name, 1)
        second_harness, second = _observed(name, 1)
        assert first.to_json() == second.to_json()
        assert first.history.dumps() == second.history.dumps()
        assert first.timeline == second.timeline
        assert first.render() == second.render()
        obs_a, obs_b = first_harness.sim.obs, second_harness.sim.obs
        assert obs_a.registry.to_json() == obs_b.registry.to_json()
        assert obs_a.tracer.to_json() == obs_b.tracer.to_json()

    def test_different_seeds_diverge(self):
        # The seed must actually steer the run (otherwise the identity
        # check above would be vacuous).
        first = run_verify("crash-restart", seed=1)
        second = run_verify("crash-restart", seed=2)
        assert [txn.end_ms for txn in first.history.txns] != \
            [txn.end_ms for txn in second.history.txns]
        assert first.to_json() != second.to_json()


@pytest.mark.chaos
@pytest.mark.parametrize("name", NEMESIS_ROWS)
@pytest.mark.parametrize("seed", range(5))
def test_chaos_sweep(name, seed):
    """Every such row is clean on 5 seeds: no anomaly, and its audit
    (keyspace, placement after repair, clock fences) holds."""
    result = run_verify(name, seed=seed)
    assert result.ok, f"{name} seed={seed}\n{result.render()}"


@pytest.mark.chaos
@pytest.mark.parametrize("seed", range(5))
def test_partition_leaseholder_on_epoch_occ(seed):
    result = run_verify("partition-leaseholder", seed=seed,
                        protocol="epoch-occ")
    assert result.ok, result.render()
