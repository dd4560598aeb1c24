"""The experiment spine (``repro.harness.testbed``): the attempt
classifier, the hardening constants, and the heal -> settle -> audit
tail every harness shares."""

import pytest

from repro.chaos import ChaosHarness, FaultEvent
from repro.chaos import invariants
from repro.errors import (
    AmbiguousCommitError,
    DeadlineExceededError,
    FollowerReadNotAvailableError,
    RangeUnavailableError,
    TransactionAbortedError,
    TransactionRetryError,
)
from repro.harness import testbed
from repro.harness.openloop import OpenLoopHarness
from repro.harness.protocols import _ProtocolRun
from repro.harness.rebalance import _RebalanceRun, run_rebalance
from repro.harness.testbed import FAIL, INDETERMINATE, OK, Testbed
from repro.sim.network import NetworkUnavailableError
from repro.txn import TransactionCoordinator
from repro.verify import VerifyHarness


def provisioned(seed=0):
    bed = Testbed(seed)
    bed.range = bed.provision("t", bed.zone_config())
    return bed


def drive(bed, coroutine):
    return bed.sim.run_until_future(bed.sim.spawn(coroutine))


def raising(error):
    def txn_fn(txn):
        raise error
        yield  # pragma: no cover - makes this a coroutine
    return txn_fn


class TestAttemptClassifier:
    def test_commit_is_ok_with_the_transaction_value(self):
        bed = provisioned()
        gateway = bed.cluster.gateway_for_region(bed.home)

        def txn_fn(txn):
            yield from txn.write(bed.range, "k", 41)
            return "done"

        assert drive(bed, bed.attempt(gateway, txn_fn)) == (OK, "done", "")
        assert drive(bed, bed.attempt(
            gateway, bed.increment(bed.range, "k"))) == (OK, None, "")
        assert bed.run_txn(gateway, lambda txn: txn.read(bed.range, "k")) \
            == 42

    def test_ambiguous_commit_is_indeterminate(self):
        bed = provisioned()
        gateway = bed.cluster.gateway_for_region(bed.home)
        outcome = drive(bed, bed.attempt(
            gateway, raising(AmbiguousCommitError(7))))
        assert outcome == (INDETERMINATE, None, "AmbiguousCommitError")

    @pytest.mark.parametrize("error", [
        TransactionRetryError("refresh failed"),
        TransactionAbortedError("pushed"),
        RangeUnavailableError("no quorum"),
        NetworkUnavailableError("partitioned"),
        FollowerReadNotAvailableError(1, 5.0, 4.0),
    ], ids=lambda error: type(error).__name__)
    def test_retryable_give_up_is_fail(self, error):
        bed = provisioned()
        gateway = bed.cluster.gateway_for_region(bed.home)
        status, value, name = drive(bed, bed.attempt(
            gateway, raising(error), max_attempts=2))
        assert (status, value) == (FAIL, None)
        # Errors the coordinator itself retries surface as its give-up.
        assert name in (type(error).__name__, "TransactionRetryError")

    @pytest.mark.parametrize("error", [
        ValueError("a bug, not an outcome"),
        DeadlineExceededError("txn", 1.0, 2.0),
    ], ids=lambda error: type(error).__name__)
    def test_anything_else_propagates(self, error):
        bed = provisioned()
        gateway = bed.cluster.gateway_for_region(bed.home)
        with pytest.raises(type(error)):
            drive(bed, bed.attempt(gateway, raising(error)))

    def test_rebalance_clients_do_not_swallow_bugs(self, monkeypatch):
        """The rebalance client used to count *any* exception as a
        failed txn; only classified outcomes may be counted."""
        def broken_run(self, gateway, txn_fn, **kwargs):
            raise RuntimeError("coordinator bug")
            yield  # pragma: no cover

        monkeypatch.setattr(TransactionCoordinator, "run", broken_run)
        with pytest.raises(RuntimeError, match="coordinator bug"):
            run_rebalance(0)

    def test_outcome_vocabulary_is_the_history_checkers(self):
        assert (invariants.OK, invariants.FAIL, invariants.INDETERMINATE) \
            == (OK, FAIL, INDETERMINATE)


class TestHardening:
    @pytest.mark.parametrize("build, retransmit", [
        (lambda: ChaosHarness(0), True),
        (lambda: VerifyHarness(0), True),
        (lambda: _ProtocolRun(0, "crdb"), True),
        (lambda: _RebalanceRun(0), True),
        (lambda: OpenLoopHarness(), False),
    ], ids=["chaos", "verify", "protocols", "rebalance", "openloop"])
    def test_every_harness_range_gets_the_constants(self, monkeypatch,
                                                    build, retransmit):
        calls = []
        real = testbed.provision_range

        def spy(cluster, config, **kwargs):
            calls.append(kwargs)
            return real(cluster, config, **kwargs)

        monkeypatch.setattr(testbed, "provision_range", spy)
        harness = build()
        assert calls and isinstance(harness, Testbed)
        for kwargs in calls:
            assert kwargs["side_transport_interval_ms"] == \
                testbed.SIDE_TRANSPORT_INTERVAL_MS == 100.0
            assert kwargs["proposal_timeout_ms"] == \
                testbed.PROPOSAL_TIMEOUT_MS == 1000.0
            assert kwargs["retransmit_interval_ms"] == (
                testbed.RETRANSMIT_INTERVAL_MS if retransmit else None)
        assert testbed.RETRANSMIT_INTERVAL_MS == 150.0

    def test_repair_and_clock_switches(self):
        bed = provisioned()
        assert bed.clock_monitor is bed.liveness is bed.repair_queue is None
        bed.enable_clock_monitor()
        bed.enable_repair([(bed.range, bed.zone_config())])
        assert bed.cluster.clock_monitor is bed.clock_monitor
        assert bed.clock_monitor.fence_enabled
        assert bed.liveness.heartbeat_interval_ms == \
            testbed.HEARTBEAT_INTERVAL_MS
        assert bed.liveness.time_until_store_dead_ms == \
            testbed.TIME_UNTIL_STORE_DEAD_MS
        assert bed.repair_queue.interval_ms == testbed.REPAIR_INTERVAL_MS


class TestHealSettleAudit:
    def run(self, restart_dead):
        """Two faults that never heal on their own: the whole of Europe
        crashes, and the home<->Asia link turns lossy."""
        bed = provisioned(seed=3)
        cluster, faults = bed.cluster, bed.cluster.network.faults
        home, europe, asia = bed.regions
        gateway = cluster.gateway_for_region(home)
        bed.run_txn(gateway, lambda txn: txn.write(bed.range, "n", 0))
        victims = [n.node_id for n in cluster.nodes_in_region(europe)]
        nemesis = bed.start_nemesis([
            FaultEvent("blackout", 50.0,
                       inject=lambda: [cluster.crash_node(n)
                                       for n in victims]),
            FaultEvent("lossy", 100.0,
                       inject=lambda: faults.set_loss(home, asia, 0.3),
                       heal=lambda: faults.set_loss(home, asia, 0.0)),
        ])
        outcomes = []

        def client(region):
            node = cluster.gateway_for_region(region)
            for _ in range(6):
                outcome = yield from bed.attempt(
                    node, bed.increment(bed.range, "n"), max_attempts=6)
                outcomes.append(outcome[0])
                yield bed.sim.sleep(40.0)

        bed.run_clients(client(region) for region in (home, asia))
        assert sorted(nemesis.active_faults) == ["blackout", "lossy"]
        healed_at = bed.sim.now
        bed.heal_and_settle(nemesis, restart_dead=restart_dead)
        assert nemesis.active_faults == []
        assert bed.sim.now == healed_at + testbed.SETTLE_AFTER_HEAL_MS
        final = bed.audit(lambda txn: txn.read(bed.range, "n"))
        return bed, outcomes, final

    def test_healed_world_agrees_in_every_region(self):
        bed, outcomes, final = self.run(restart_dead=True)
        assert list(final) == bed.regions
        assert len(set(final.values())) == 1
        acked = outcomes.count(OK)
        assert acked > 0
        assert acked <= final[bed.home] <= acked + \
            outcomes.count(INDETERMINATE)

    def test_permanent_loss_stays_lost_and_is_skipped(self):
        bed, _outcomes, final = self.run(restart_dead=False)
        home, europe, asia = bed.regions
        assert list(final) == [home, asia]
        assert final[home] == final[asia]
        assert all(bed.cluster.network.node_is_dead(n.node_id)
                   for n in bed.cluster.nodes_in_region(europe))
