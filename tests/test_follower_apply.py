"""Followers apply on read.

The leaseholder applies each committed Raft entry when it learns it; any
other replica queues the entry and applies its queue, in log order, when
something reads its state.  These tests queue entries first and then
drive each path that reads a follower's state, and check that every
replica that has learned the same log ends up with the same state.
"""

import pytest

from repro.cluster import standard_cluster
from repro.harness.tracing import _CLIENT_POOLS, DEFAULT_REGIONS
from repro.kv.commands import (
    PutIntentCommand,
    SetTxnRecordCommand,
    TxnStatus,
)
from repro.kv.distsender import ReadRouting
from repro.obs.report import LatencyRecorder
from repro.raft.group import ReplicaType
from repro.sim.clock import Timestamp
from repro.sql.session import Engine
from repro.verify.generator import VerifyHarness

from .kv_util import REGIONS3, KVTestBed

HOME = "us-east1"
FAR = "asia-northeast1"


def replica_state(replica):
    """Everything a replica replicates, read the way any reader reads it
    (so the queue is applied first)."""
    store = replica.store
    return (
        {key: (store._data[key].versions, store.intent_for(key))
         for key in store.keys()},
        dict(replica.txn_records),
        [record.txn_id for record in replica._committed],
        dict(replica.epoch_orders),
    )


def assert_converged(cluster):
    """Every live replica that has applied as far as its range's leader
    holds the leader's replicated state.  Returns how many followers
    were compared, so a caller can tell the check was not vacuous."""
    dead = cluster.network.node_is_dead
    ranges = {replica.range for node in cluster.nodes
              for replica in node.replicas.values()}
    compared = 0
    for rng in sorted(ranges, key=lambda r: r.range_id):
        leader = rng.group.leader
        reference = replica_state(rng.replicas[leader.node.node_id])
        for node_id, replica in sorted(rng.replicas.items()):
            peer = rng.group.peers.get(node_id)
            if (node_id == leader.node.node_id or dead(node_id)
                    or peer is None
                    or peer.applied_index != leader.applied_index):
                continue
            assert replica_state(replica) == reference, (
                f"{rng.name}: n{node_id} diverges from leader "
                f"n{leader.node.node_id}")
            compared += 1
    return compared


def queued_followers(rng):
    return [replica for node_id, replica in rng.replicas.items()
            if node_id != rng.leaseholder_node_id and replica._queue]


def spare_node(bed, rng, region=FAR):
    return next(node for node in bed.cluster.nodes_in_region(region)
                if node.node_id not in rng.replicas)


def write_all(bed, rng, keys, value=1):
    for key in keys:
        bed.do_write(HOME, rng, key, value)
    bed.settle(300.0)


# -- the snapshot bugfix --------------------------------------------------------


class TestSnapshotCarriesEverything:
    """A snapshot installs every piece of replicated state, epoch-OCC's
    commit-order decisions included."""

    def ordered_range(self):
        bed = KVTestBed(regions=REGIONS3, txn_protocol="epoch-occ")
        rng = bed.make_range(HOME)
        write_all(bed, rng, ["a", "b", "c", "d", "e"])
        orders = rng.leaseholder_replica.epoch_orders
        assert len(orders) == 5
        return bed, rng, dict(orders)

    def test_add_replica_copies_epoch_orders(self):
        bed, rng, orders = self.ordered_range()
        for replica in rng.replicas.values():
            assert replica.epoch_orders == orders
        joined = rng.add_replica(spare_node(bed, rng), ReplicaType.NON_VOTER)
        assert joined.epoch_orders == orders
        assert assert_converged(bed.cluster) >= len(rng.replicas) - 1

    def test_add_replica_safely_copies_epoch_orders(self):
        bed, rng, orders = self.ordered_range()
        process = bed.sim.spawn(rng.add_replica_safely(spare_node(bed, rng)))
        joined = bed.sim.run_until_future(process)
        assert joined.epoch_orders == orders
        assert assert_converged(bed.cluster) >= len(rng.replicas) - 1

    def test_install_drops_the_queue_it_covers(self):
        """Whatever a replica had queued, the snapshot's state replaces
        it: nothing queued is applied on top."""
        bed = KVTestBed(regions=REGIONS3)
        rng = bed.make_range(HOME)
        write_all(bed, rng, ["a"])
        follower = queued_followers(rng)[0]
        source = rng.leaseholder_replica
        follower.apply(PutIntentCommand(key="b", ts=Timestamp(1.0), value=1,
                                        txn_id=99, anchor_node_id=1))
        follower.install(source)
        assert not follower._queue
        assert replica_state(follower) == replica_state(source)
        assert follower.store.intent_for("b") is None


# -- every reader applies the queue first -------------------------------------


class TestEveryReaderApplies:
    def test_follower_read_on_a_global_range(self):
        bed = KVTestBed(regions=REGIONS3)
        rng = bed.make_range(HOME, global_reads=True)
        bed.settle(300.0)
        bed.do_write(HOME, rng, "k", "v")
        bed.settle(1000.0)
        far = bed.ds.nearest_replica(bed.gateway(FAR), rng)
        assert not far.is_leaseholder and far._queue
        value, elapsed = bed.do_read(FAR, rng, "k",
                                     routing=ReadRouting.NEAREST)
        assert value == "v" and elapsed < 10.0  # served by the follower
        assert not far._queue

    def test_first_serve_after_a_lease_transfer(self):
        bed = KVTestBed(regions=REGIONS3)
        rng = bed.make_range(HOME)
        write_all(bed, rng, ["a", "b"])
        voters = {peer.node.node_id for peer in rng.group.voters()}
        target = next(r for r in queued_followers(rng)
                      if r.node.node_id in voters)
        rng.transfer_lease(target.node.node_id)
        assert target._queue  # nothing has read it yet
        assert bed.do_read(HOME, rng, "a")[0] == 1
        assert not target._queue
        bed.do_write(HOME, rng, "a", 2)
        assert bed.do_read(HOME, rng, "a")[0] == 2
        bed.settle(300.0)
        assert assert_converged(bed.cluster) >= 4

    def test_snapshot_from_a_source_with_entries_queued(self):
        """The new leaseholder has served nothing when the repair path
        snapshots it: the snapshot must hold its queued entries."""
        bed = KVTestBed(regions=REGIONS3)
        rng = bed.make_range(HOME)
        write_all(bed, rng, ["a", "b", "c"])
        voters = {peer.node.node_id for peer in rng.group.voters()}
        source = next(r for r in queued_followers(rng)
                      if r.node.node_id in voters)
        rng.transfer_lease(source.node.node_id)
        assert source._queue
        joined = bed.sim.run_until_future(
            bed.sim.spawn(rng.add_replica_safely(spare_node(bed, rng))))
        assert sorted(joined.store.keys()) == ["a", "b", "c"]
        assert replica_state(joined) == replica_state(source)

    def test_split_and_merge(self):
        bed = KVTestBed(regions=REGIONS3)
        rng = bed.make_range(HOME)
        keys = ["a", "f", "k", "p", "u"]
        write_all(bed, rng, keys)
        assert len(queued_followers(rng)) == len(rng.replicas) - 1
        keyspace = bed.cluster.keyspace
        left = rng.descriptor
        right = keyspace.split(left, "m")
        for node_id, replica in rng.replicas.items():
            child = right.rng.replicas[node_id]
            assert sorted(replica.store.keys()) == ["a", "f", "k"]
            assert sorted(child.store.keys()) == ["p", "u"]
        assert keyspace.violations() == []
        assert assert_converged(bed.cluster) >= 2 * (len(rng.replicas) - 1)
        # Queue entries on both sides again, then fold the right back in.
        bed.do_write(HOME, rng, "f", 2)
        bed.do_write(HOME, right.rng, "u", 2)
        bed.settle(300.0)
        assert queued_followers(rng) and queued_followers(right.rng)
        keyspace.merge(left, right)
        now = rng.leaseholder_node.clock.now()
        for replica in rng.replicas.values():
            assert sorted(replica.store.keys()) == keys
            assert replica.store.get("u", now).value == 2
        assert keyspace.violations() == []
        assert assert_converged(bed.cluster) >= len(rng.replicas) - 1

    def test_commit_outcome_found_only_on_a_follower(self):
        bed = KVTestBed(regions=REGIONS3)
        rng = bed.make_range(HOME)
        bed.settle(300.0)
        txn = bed.coord.begin(bed.gateway(HOME))
        follower = next(replica for node_id, replica in rng.replicas.items()
                        if node_id != rng.leaseholder_node_id)
        commit_ts = rng.leaseholder_node.clock.now()
        follower.apply(SetTxnRecordCommand(txn.txn_id, TxnStatus.COMMITTED,
                                           commit_ts))
        assert follower._queue
        assert rng.leaseholder_replica.committed(txn.txn_id) is None
        assert txn._recover_commit_outcome(rng) == commit_ts



class TestQueueFaults:
    """A command a follower cannot apply fails where it can be traced."""

    def follower(self):
        bed = KVTestBed(regions=REGIONS3)
        rng = bed.make_range(HOME)
        write_all(bed, rng, ["a"])
        return queued_followers(rng)[0]

    def test_unknown_command_fails_when_learned(self):
        follower = self.follower()
        queued = list(follower._queue)
        with pytest.raises(TypeError, match="unknown command"):
            follower.apply(("bogus",))
        assert follower._queue == queued

    def test_a_failed_replay_keeps_failing(self):
        """The entry that fails and those after it stay queued, and the
        failure is never read as a missing attribute."""
        follower = self.follower()
        for txn_id in (98, 99):
            follower.apply(PutIntentCommand(key="b", ts=Timestamp(1.0),
                                            value=txn_id, txn_id=txn_id,
                                            anchor_node_id=1))
        last = follower._queue[-1]
        for _ in range(2):
            with pytest.raises(RuntimeError, match="cannot apply"):
                follower.store
            with pytest.raises(RuntimeError, match="cannot apply"):
                getattr(follower, "txn_records", None)
        assert follower._queue == [last]


# -- replicas converge ------------------------------------------------------------


def run_fixed(workload, protocol, n_ops):
    cluster = standard_cluster(
        DEFAULT_REGIONS, max_clock_offset=250.0, skew_fraction=0.05,
        jitter_fraction=0.02, seed=0, txn_protocol=protocol)
    engine = Engine(cluster, side_transport_interval_ms=100.0, seed=0)
    recorder = LatencyRecorder(cluster.sim.obs.registry)
    _CLIENT_POOLS[workload](engine, DEFAULT_REGIONS, n_ops, recorder, 0)
    cluster.sim.run(until=cluster.sim.now + 1000.0)
    return cluster


class TestReplicasConverge:
    """After a run, applying every queue leaves each caught-up replica
    with its leader's replicated state: nothing queued was skipped,
    reordered or applied twice."""

    @pytest.mark.parametrize("protocol", ["crdb", "epoch-occ"])
    @pytest.mark.parametrize("workload, n_ops", [("kv", 60), ("tpcc", 6)])
    def test_fixed_workloads(self, workload, n_ops, protocol):
        cluster = run_fixed(workload, protocol, n_ops)
        assert assert_converged(cluster) > 0

    @pytest.mark.parametrize("protocol", ["crdb", "epoch-occ"])
    @pytest.mark.parametrize("scenario", ["split-merge", "crash-restart"])
    def test_verify_rows(self, scenario, protocol):
        harness = VerifyHarness(0, protocol=protocol)
        assert harness.run(scenario=scenario).ok
        assert assert_converged(harness.cluster) > 0

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP 6(b): a merge copies the right side's records at its "
        "instant, so a follower that has not learned the right side's "
        "last entry (a key-less ABORTED record) lacks a record its "
        "leader's left replica holds; passes once merges are log-ordered"))
    def test_merge_before_a_follower_learns_the_right_side(self):
        harness = VerifyHarness(0)
        assert harness.run(scenario="split-merge", clients_per_region=1,
                           ops_per_client=4).ok
        assert_converged(harness.cluster)
