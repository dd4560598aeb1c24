"""Edge tests for Raft leader→peer message coalescing.

The coalescing window batches appends, commit-index advances and
closed-timestamp heartbeats per follower stream.  These tests pin the
awkward corners: a heartbeat-only batch must still carry a commit
advance, a batch straddling a leadership change must not resurrect a
truncated suffix, and chaos provisioning must leave coalescing off so
fault injection exercises the unbatched protocol.
"""

import pytest

from repro.verify import VerifyHarness
from repro.cluster import standard_cluster
from repro.errors import RangeUnavailableError
from repro.kv.range import Range
from repro.raft.group import RaftGroup, ReplicaType
from repro.sim.clock import Timestamp, TS_ZERO


def ts(physical, logical=0):
    return Timestamp(physical, logical)


def build_group(cluster, nodes, coalesce_ms=None, leader_index=0):
    applied = {node.node_id: [] for node in nodes}

    def apply_fn(node, command):
        applied[node.node_id].append(command)

    group = RaftGroup(cluster.sim, cluster.network, range_id=1,
                      apply_fn=apply_fn, coalesce_ms=coalesce_ms)
    for node in nodes:
        group.add_peer(node, ReplicaType.VOTER)
    group.set_leader(nodes[leader_index].node_id)
    return group, applied


def one_region_cluster(n=3):
    return standard_cluster(["us-east1"], nodes_per_region=n,
                            jitter_fraction=0.0)


def coalesced_batches(cluster):
    return cluster.sim.obs.registry.value("raft.coalesced_batches", range=1)


class TestHeartbeatCarriesCommit:
    def test_heartbeat_only_batch_advances_commit_and_applies(self):
        """A closed-ts heartbeat with no pending appends still teaches a
        follower the commit index (CRDB's side transport does the same:
        idle ranges learn commits from heartbeats, not append traffic)."""
        cluster = one_region_cluster()
        group, applied = build_group(cluster, cluster.nodes, coalesce_ms=2.0)
        cmds = [("cmd", i) for i in range(3)]
        for cmd in cmds:
            group.propose(cmd, TS_ZERO)
        cluster.sim.run()
        assert group.commit_index == 3

        follower = next(p for p in group.peers.values()
                        if p.node.node_id != group.leader_node_id)
        # Roll the follower's commit knowledge back, as if every commit
        # update to it had been lost: the log is intact but unapplied.
        follower.known_commit_index = 0
        follower.applied_index = 0
        applied[follower.node.node_id].clear()

        before = coalesced_batches(cluster)
        group.broadcast_closed_ts(ts(500.0))
        cluster.sim.run()

        # The heartbeat-only batch re-taught the commit index, applied
        # the backlog, and only then advanced the closed timestamp.
        assert follower.known_commit_index == 3
        assert follower.applied_index == 3
        assert applied[follower.node.node_id] == cmds
        assert follower.closed_ts == ts(500.0)
        # One batch per follower stream, nothing per-message.
        n_followers = len(cluster.nodes) - 1
        assert coalesced_batches(cluster) == before + n_followers

    def test_heartbeat_does_not_close_ts_past_unapplied_commit(self):
        """A follower that cannot yet apply up to the heartbeat's commit
        index must not advance its closed timestamp — it would claim
        reads over data it does not hold."""
        cluster = one_region_cluster()
        group, applied = build_group(cluster, cluster.nodes, coalesce_ms=2.0)
        group.propose(("cmd", 0), TS_ZERO)
        cluster.sim.run()

        follower = next(p for p in group.peers.values()
                        if p.node.node_id != group.leader_node_id)
        # Simulate a follower whose log lost its tail (crash before the
        # disk append): the heartbeat's commit index is beyond its log.
        follower.log.clear()
        follower.known_commit_index = 0
        follower.applied_index = 0
        applied[follower.node.node_id].clear()

        group.broadcast_closed_ts(ts(500.0))
        cluster.sim.run()
        assert follower.closed_ts < ts(500.0)
        assert applied[follower.node.node_id] == []


    def test_a_batch_of_appends_carries_the_commit_index(self):
        """No commit update per entry: the next batch holding an append
        tells the follower what had committed when it was flushed."""
        cluster = one_region_cluster()
        group, applied = build_group(cluster, cluster.nodes, coalesce_ms=2.0)
        group.propose(("cmd", 0), TS_ZERO)
        cluster.sim.run()
        assert group.commit_index == 1
        followers = [p for p in group.peers.values()
                     if p.node.node_id != group.leader_node_id]
        assert all(p.known_commit_index == 0 for p in followers)
        group.propose(("cmd", 1), TS_ZERO)
        cluster.sim.run()
        for peer in followers:
            assert peer.known_commit_index == 1
            assert applied[peer.node.node_id] == [("cmd", 0)]


class TestBatchStraddlingTruncation:
    def test_stale_batch_cannot_resurrect_truncated_suffix(self):
        """An old leader's append sits in a coalescing window while a
        failover elects a new leader that proposes a *different* entry
        at the same index.  Whichever batch lands first, every replica
        must converge on the new leader's branch and the stale command
        must never apply."""
        cluster = one_region_cluster()
        nodes = cluster.nodes
        group, applied = build_group(cluster, nodes, coalesce_ms=2.0)

        group.propose(("a",), TS_ZERO)
        cluster.sim.run()
        assert group.commit_index == 1

        # Old leader queues index 2 into its per-follower outboxes…
        f_stale = group.propose(("stale",), TS_ZERO)
        # …then loses leadership before those windows flush.
        group.fail_over(nodes[1].node_id)
        assert f_stale.done
        assert isinstance(f_stale.error, RangeUnavailableError)
        # The new leader writes its own entry at index 2; its appends
        # share outbox windows with the failover resync traffic.
        f_new = group.propose(("new",), TS_ZERO)
        cluster.sim.run()

        assert f_new.done and f_new.error is None
        new_entry = f_new.value
        assert new_entry.index == 2 and new_entry.term == group.term
        assert group.commit_index == 2
        # The followers learn commit index 2 from the next heartbeat.
        group.broadcast_closed_ts(ts(500.0))
        cluster.sim.run()
        for peer in group.peers.values():
            assert [e.command for e in peer.log] == [("a",), ("new",)]
            assert peer.log[1] is new_entry
            assert applied[peer.node.node_id] == [("a",), ("new",)]

    def test_duplicate_batch_delivery_is_idempotent(self):
        """Retransmitting a committed tail through the coalescing path
        re-acks duplicates instead of double-applying them."""
        cluster = one_region_cluster()
        group, applied = build_group(cluster, cluster.nodes, coalesce_ms=2.0)
        cmds = [("cmd", i) for i in range(2)]
        for cmd in cmds:
            group.propose(cmd, TS_ZERO)
        cluster.sim.run()

        follower = next(p for p in group.peers.values()
                        if p.node.node_id != group.leader_node_id)
        # Re-send everything (crash-restart catch-up path) to a follower
        # that is already fully caught up.
        group.resync_peer(follower.node.node_id)
        cluster.sim.run()
        assert [e.command for e in follower.log] == cmds
        assert applied[follower.node.node_id] == cmds


class TestCoalescingConfiguration:
    def test_chaos_provisioning_leaves_coalescing_off(self):
        """Fault scenarios must exercise the unbatched protocol: fault
        injection counts and reorders individual messages, and the
        sweeps' expected outputs predate coalescing."""
        harness = VerifyHarness(seed=0)
        assert harness.cluster.raft_coalesce_ms is None
        for rng in harness.ranges.values():
            assert rng.group.coalesce_ms is None

    def test_cluster_window_threads_to_provisioned_ranges(self):
        cluster = standard_cluster(["us-east1"], nodes_per_region=3,
                                   jitter_fraction=0.0,
                                   raft_coalesce_ms=0.25)
        rng = Range(cluster)
        assert rng.group.coalesce_ms == 0.25

    def test_coalesced_and_uncoalesced_agree_on_outcome(self):
        """Coalescing changes message count and latency, never results:
        the same proposals commit in the same order to the same logs."""
        outcomes = []
        for coalesce_ms in (None, 1.0):
            cluster = one_region_cluster()
            group, applied = build_group(cluster, cluster.nodes,
                                         coalesce_ms=coalesce_ms)
            for i in range(5):
                group.propose(("cmd", i), TS_ZERO)
            cluster.sim.run()
            outcomes.append((group.commit_index,
                             {nid: list(cmds)
                              for nid, cmds in applied.items()},
                             [e.command for e in group.leader.log]))
        assert outcomes[0] == outcomes[1]
