"""Unit tests for KV-layer pieces: policies, routing, replicas, ranges."""

import inspect
import re
from pathlib import Path

import pytest

import repro
from repro.cluster import standard_cluster
from repro.errors import (FollowerReadNotAvailableError,
                          RangeUnavailableError, TransactionAbortedError)
from repro.harness.openloop import OpenLoopConfig, OpenLoopHarness
from repro.harness.tracing import DEFAULT_REGIONS, run_tpcc_clients
from repro.kv.closedts import (
    DEFAULT_CLOSED_TS_LAG_MS,
    LagPolicy,
    LeadPolicy,
)
from repro.kv.commands import (
    PutIntentCommand,
    ResolveIntentCommand,
    SetTxnRecordCommand,
    TxnStatus,
)
from repro.kv.range import Range
from repro.obs.report import LatencyRecorder
from repro.sim.clock import Timestamp
from repro.sql.session import Engine
from repro.txn.coordinator import TransactionCoordinator
from repro.verify import VerifyHarness

from .kv_util import KVTestBed, REGIONS3, REGIONS5

HOME, FAR = REGIONS3[0], REGIONS3[1]


def ts(physical, logical=0, synthetic=False):
    return Timestamp(physical, logical, synthetic)


class TestClosedTsPolicies:
    def test_lag_policy_targets_past(self):
        policy = LagPolicy(lag_ms=3000.0)
        target = policy.target(ts(10_000.0))
        assert target == ts(7000.0)
        assert not policy.leads
        assert not target.synthetic

    def test_default_lag_matches_crdb(self):
        assert LagPolicy().lag_ms == DEFAULT_CLOSED_TS_LAG_MS == 3000.0

    def test_lead_policy_targets_future_synthetic(self):
        policy = LeadPolicy(lead_ms=500.0)
        target = policy.target(ts(1000.0))
        assert target.physical == 1500.0
        assert target.synthetic
        assert policy.leads

    def test_for_range_formula(self):
        policy = LeadPolicy.for_range(
            raft_latency_ms=5.0, replicate_latency_ms=100.0,
            max_clock_offset=250.0, side_transport_interval_ms=200.0,
            skew_allowance_ms=10.0, slack_ms=5.0)
        assert policy.lead_ms == 5.0 + 100.0 + 250.0 + 200.0 + 10.0 + 5.0


class TestDistSenderRouting:
    def test_nearest_replica_prefers_same_region(self):
        bed = KVTestBed(regions=REGIONS5)
        rng = bed.make_range("us-east1")
        for region in REGIONS5:
            gateway = bed.gateway(region)
            replica = bed.ds.nearest_replica(gateway, rng)
            assert replica.node.locality.region == region

    def test_nearest_replica_skips_dead_nodes(self):
        bed = KVTestBed(regions=REGIONS3)
        rng = bed.make_range("us-east1")
        gateway = bed.gateway("europe-west2")
        local = bed.ds.nearest_replica(gateway, rng)
        bed.cluster.network.kill_node(local.node.node_id)
        fallback = bed.ds.nearest_replica(gateway, rng)
        assert fallback.node.node_id != local.node.node_id

    def test_no_live_replicas_raises(self):
        bed = KVTestBed(regions=REGIONS3)
        rng = bed.make_range("us-east1")
        for replica in rng.replicas.values():
            bed.cluster.network.kill_node(replica.node.node_id)
        with pytest.raises(FollowerReadNotAvailableError):
            bed.ds.nearest_replica(bed.gateway("us-east1"), rng)


class TestReplica:
    def test_apply_unknown_command_raises(self):
        bed = KVTestBed(regions=REGIONS3)
        rng = bed.make_range("us-east1")
        replica = rng.leaseholder_replica
        with pytest.raises(TypeError):
            replica.apply(("weird",))

    def test_apply_commands_roundtrip(self):
        bed = KVTestBed(regions=REGIONS3)
        rng = bed.make_range("us-east1")
        replica = rng.leaseholder_replica
        replica.apply(PutIntentCommand(key="k", ts=ts(5), value="v",
                                       txn_id=1, anchor_node_id=1))
        assert replica.store.intent_for("k") is not None
        replica.apply(SetTxnRecordCommand(txn_id=1,
                                          status=TxnStatus.COMMITTED,
                                          commit_ts=ts(5)))
        assert replica.txn_records[1].status == TxnStatus.COMMITTED
        replica.apply(ResolveIntentCommand(key="k", txn_id=1,
                                           commit_ts=ts(5)))
        assert replica.store.intent_for("k") is None
        assert replica.store.get("k", ts(6)).value == "v"

    def test_follower_cannot_serve_above_closed(self):
        bed = KVTestBed(regions=REGIONS3)
        rng = bed.make_range("us-east1")
        bed.settle(500.0)
        follower = [r for r in rng.replicas.values()
                    if not r.is_leaseholder][0]
        future_ts = Timestamp(bed.sim.now + 60_000.0)
        with pytest.raises(FollowerReadNotAvailableError):
            follower.follower_read("k", future_ts)

    def test_max_servable_ts_considers_intents(self):
        bed = KVTestBed(regions=REGIONS3)
        rng = bed.make_range("us-east1")
        bed.settle(5000.0)
        follower = [r for r in rng.replicas.values()
                    if not r.is_leaseholder][0]
        closed = follower.closed_ts
        assert follower.max_servable_ts("k") == closed
        # An intent below the closed timestamp caps servability.
        intent_ts = Timestamp(closed.physical - 1.0)
        follower.store.put_intent("k", intent_ts, "v", txn_id=9)
        assert follower.max_servable_ts("k") < intent_ts


class TestRangeHelpers:
    def test_latency_estimates_zone_survival(self):
        bed = KVTestBed(regions=REGIONS5)
        rng = bed.make_range("us-east1")
        # Quorum is intra-region: ~1 ms RTT + disk.
        assert rng.raft_latency_ms() < 5.0
        # Furthest member is australia: 198/2 = 99 ms one way.
        assert rng.replicate_latency_ms() == pytest.approx(99.0)

    def test_latency_estimates_region_survival(self):
        bed = KVTestBed(regions=REGIONS5, goal="region")
        rng = bed.make_range("us-east1")
        # Quorum (3 of 5) needs at least one other region: >= 63/..RTT.
        assert rng.raft_latency_ms() >= 60.0

    def test_no_leaseholder_raises(self):
        bed = KVTestBed(regions=REGIONS3)
        rng = Range(bed.cluster)
        with pytest.raises(RangeUnavailableError):
            _ = rng.leaseholder_replica

    def test_closed_target_monotone(self):
        bed = KVTestBed(regions=REGIONS3)
        rng = bed.make_range("us-east1", global_reads=True)
        first = rng.closed_target()
        rng._note_closed(first)
        bed.settle(1.0)
        assert rng.closed_target() >= first

    def test_destroyed_range_stops_side_transport(self):
        bed = KVTestBed(regions=REGIONS3)
        rng = bed.make_range("us-east1")
        rng.destroy()
        bed.settle(1000.0)  # transport loop must exit without error


class TestTxnRegistryStatus:
    def test_unknown_txn(self):
        bed = KVTestBed(regions=REGIONS3)
        assert bed.cluster.txn_status(424242) is None

    def test_lifecycle(self):
        bed = KVTestBed(regions=REGIONS3)
        rng = bed.make_range("us-east1")
        txn = bed.coord.begin(bed.gateway("us-east1"))
        assert bed.cluster.txn_status(txn.txn_id) == (False, None)

        def run():
            yield from txn.write(rng, "k", "v")
            commit_ts = yield from txn.commit()
            return commit_ts

        process = bed.sim.spawn(run())
        commit_ts = bed.sim.run_until_future(process)
        # Acknowledged, its intent's resolve still in flight: a pusher
        # may yet need the outcome.
        final, recorded_ts = bed.cluster.txn_status(txn.txn_id)
        assert final
        assert recorded_ts == commit_ts
        bed.settle(100.0)
        assert bed.cluster.txn_status(txn.txn_id) is None

    # -- a finished transaction leaves the registry -------------------------

    @staticmethod
    def two_ranges(txn_protocol=None):
        bed = KVTestBed(regions=REGIONS3, txn_protocol=txn_protocol)
        home, far = bed.make_range(HOME), bed.make_range(FAR)
        for rng, key in ((home, "k"), (far, "f")):
            rng.bulk_ingest([(key, 0)], rng.leaseholder_node.clock.now())
        bed.settle()
        return bed, home, far

    @staticmethod
    def body(shape, home, far):
        """A transaction of one commit shape over ``home`` and ``far``."""
        def txn_fn(txn):
            if shape == "read-only":
                yield from txn.read(home, "k")
            elif shape == "one-phase":
                yield from txn.write(home, "k", 1, commit=True)
            else:
                yield from txn.write(home, "k", 1)
                if shape == "multi-range":
                    yield from txn.write(far, "f", 2)
                else:
                    yield from txn.write(home, "j", 2)
        return txn_fn

    @pytest.mark.parametrize("shape, resolving", [
        ("read-only", False), ("one-phase", False),
        ("single-range", True), ("multi-range", True)])
    def test_a_commit_leaves_once_nothing_is_left_to_resolve(
            self, shape, resolving):
        bed, home, far = self.two_ranges()
        txns = []

        def txn_fn(txn):
            txns.append(txn)
            yield from self.body(shape, home, far)(txn)

        bed.run_txn(HOME, txn_fn)
        # At the ack: still there while a resolve behind it is running.
        assert (txns[0].txn_id in bed.cluster.txn_registry) is resolving
        bed.settle(300.0)
        assert bed.cluster.txn_registry == {}

    def test_a_rollback_leaves_once_its_intents_are_aborted(self):
        bed, home, far = self.two_ranges()

        def txn_fn(txn):
            yield from self.body("multi-range", home, far)(txn)
            raise ValueError("the application gives up")

        with pytest.raises(ValueError):
            bed.run_txn(HOME, txn_fn)
        assert bed.cluster.txn_registry == {}
        for rng, key in ((home, "k"), (far, "f")):
            assert rng.leaseholder_replica.store.intent_for(key) is None

    @pytest.mark.parametrize("shape", ["read-only", "multi-range"])
    def test_an_epoch_commit_leaves(self, shape):
        bed, home, far = self.two_ranges(txn_protocol="epoch-occ")
        bed.run_txn(HOME, self.body(shape, home, far))
        bed.settle(300.0)
        assert bed.cluster.txn_registry == {}

    def test_a_failed_cleanup_stays_registered(self):
        """The resolve behind the ack finds the home range's quorum gone:
        the transaction stays, COMMITTED, for the pushers of the intent
        it could not resolve."""
        bed, home, _far = self.two_ranges()
        txns = []

        def txn_fn(txn):
            txns.append(txn)
            yield from txn.write(home, "k", 1)
            yield bed.sim.sleep(20.0)  # the pipelined write commits
            home.group.proposal_timeout_ms = 200.0
            for peer in home.group.voters():
                if peer.node.node_id != home.leaseholder_node_id:
                    bed.cluster.network.kill_node(peer.node.node_id)

        bed.run_txn(HOME, txn_fn)
        bed.settle(1000.0)
        assert bed.sim.obs.registry.counter(
            "txn.cleanup_failures", error="RangeUnavailableError").value == 1
        (txn,) = txns
        assert list(bed.cluster.txn_registry) == [txn.txn_id]
        assert bed.cluster.txn_status(txn.txn_id) == (True, txn.commit_ts)

    def test_an_intent_landing_after_its_transaction_left_is_aborted(self):
        """The verify_sweep seed-0 case, replayed: a transaction's
        duplicate write lands after its rollback resolved its intents and
        it left the registry.  The next writer of the key pushes a holder
        the registry does not know, takes it for finished and resolved,
        and aborts the stray instead of waiting on it for good."""
        bed, home, _far = self.two_ranges()
        txns = []

        def doomed(txn):
            txns.append(txn)
            yield from txn.write(home, "k", "doomed")
            raise ValueError("the application gives up")

        with pytest.raises(ValueError):
            bed.run_txn(HOME, doomed)
        (gone,) = txns
        assert bed.cluster.txn_status(gone.txn_id) is None
        bed.sim.run_until_future(bed.ds.write(
            bed.gateway(HOME), home, (("k", "stray"),), gone.write_ts,
            gone.txn_id, anchor_node_id=home.leaseholder_node_id))
        assert home.leaseholder_replica.store.intent_for("k") is not None

        def overwrite(txn):
            yield from txn.write(home, "k", "next")

        start = bed.sim.now
        bed.sim.run_until_future(bed.sim.spawn(
            bed.coord.run(bed.gateway(HOME), overwrite)),
            limit=start + 2000.0)
        assert bed.sim.now - start >= Range.PUSH_INTERVAL_MS  # one push
        bed.settle(100.0)
        assert home.leaseholder_replica.store.intent_for("k") is None
        assert bed.do_read(HOME, home, "k")[0] == "next"
        assert bed.cluster.txn_registry == {}


class TestAbortedTransactionsLayNoIntent:
    """A request of a transaction already rolled back is refused at the
    leaseholder (CRDB's abort span).  It happens when an RPC attempt
    times out while its request waits on a lock: the client retries,
    finishes and rolls back, and the first request, still queued on the
    server, evaluates after the rollback's resolution was proposed."""

    def test_a_write_of_an_aborted_transaction_is_refused(self):
        bed = KVTestBed(regions=REGIONS3)
        rng = bed.make_range(HOME)
        txn = bed.coord.begin(bed.gateway(HOME))
        txn.status = TxnStatus.ABORTED
        with pytest.raises(TransactionAbortedError):
            bed.sim.run_until_future(bed.ds.write(
                bed.gateway(HOME), rng, (("k", "late"),), txn.write_ts,
                txn.txn_id, anchor_node_id=rng.leaseholder_node_id))
        assert rng.leaseholder_replica.store.intent_for("k") is None
        assert rng.lock_table.is_quiescent()

    def test_the_crash_restart_replay(self):
        """crash-restart seed 236 (a stale attempt's intent met the next
        writer's at apply: ``WriteIntentError`` out of the run)."""
        result = VerifyHarness(236).run(scenario="crash-restart",
                                        ops_per_client=8, stale_ops=6)
        assert result.ok


class TestRegistryDrains:
    """What a finished fault-free run leaves registered: nothing.  A
    registry that kept every attempt grew with every operation (6928
    transactions after one openloop bench repetition)."""

    def test_openloop_leg(self):
        harness = OpenLoopHarness(OpenLoopConfig(
            load_multiplier=2.0, duration_ms=200.0, seed=0,
            obs_enabled=False))
        result = harness.run()
        assert result.good > 100
        harness.sim.run(until=harness.sim.now + 300.0)
        assert harness.cluster.txn_registry == {}

    @pytest.mark.parametrize("protocol", ["crdb", "epoch-occ"])
    def test_tpcc(self, protocol):
        cluster = standard_cluster(DEFAULT_REGIONS, seed=0,
                                   txn_protocol=protocol)
        engine = Engine(cluster, seed=0)
        recorder = LatencyRecorder(cluster.sim.obs.registry)
        run_tpcc_clients(engine, DEFAULT_REGIONS, 4, recorder, 0)
        assert engine.coordinator.stats.committed >= 24  # 6 clients x 4
        cluster.sim.run(until=cluster.sim.now + 1000.0)
        assert cluster.txn_registry == {}

    def test_only_begin_and_forget_write_the_registry(self):
        """The CI step "Registry forgets": a transaction enters in
        ``begin`` and leaves through ``forget``, and no other line in
        ``src/repro`` writes the registry."""
        writes = re.compile(
            r"txn_registry(\[[^]]*\] *=[^=]|\.(pop|popitem|clear|update"
            r"|setdefault)\()|del [a-z_.]*txn_registry")
        found = [line for path in Path(repro.__file__).parent.rglob("*.py")
                 for line in path.read_text().splitlines()
                 if writes.search(line)]
        assert len(found) == 2, found
        for method in (TransactionCoordinator.begin,
                       TransactionCoordinator.forget):
            assert writes.search(inspect.getsource(method))
