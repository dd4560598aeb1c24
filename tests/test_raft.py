"""Tests for the Raft replication layer."""

import ast
import inspect

import pytest

from repro.cluster import standard_cluster
from repro.errors import RangeUnavailableError
from repro.raft import group as group_module
from repro.raft.group import RaftGroup, ReplicaType
from repro.sim.clock import Timestamp, TS_ZERO


def ts(physical, logical=0, synthetic=False):
    return Timestamp(physical, logical, synthetic)


def build_group(cluster, voters, learners=(), leader_index=0,
                timeout=None):
    """Create a RaftGroup whose 'state machine' appends commands per node."""
    applied = {node.node_id: [] for node in list(voters) + list(learners)}

    def apply_fn(node, command):
        applied[node.node_id].append(command)

    group = RaftGroup(cluster.sim, cluster.network, range_id=1,
                      apply_fn=apply_fn, proposal_timeout_ms=timeout)
    for node in voters:
        group.add_peer(node, ReplicaType.VOTER)
    for node in learners:
        group.add_peer(node, ReplicaType.NON_VOTER)
    group.set_leader(voters[leader_index].node_id)
    return group, applied


def one_region_cluster(n=3):
    return standard_cluster(["us-east1"], nodes_per_region=n,
                            jitter_fraction=0.0)


def tick(cluster, group):
    """One side-transport tick, then settle: how the followers of a range
    with nothing more to append learn its last commit index.  No message
    carries the commit index alone; it rides on the next append."""
    group.broadcast_closed_ts(group.leader.closed_ts)
    cluster.sim.run()


class TestBasicReplication:
    def test_propose_commits_and_applies_everywhere(self):
        cluster = one_region_cluster()
        group, applied = build_group(cluster, cluster.nodes)

        def main():
            entry = yield group.propose(("cmd", 1), TS_ZERO)
            return entry

        entry = cluster.sim.run_process(main())
        assert entry.index == 1
        assert group.commit_index == 1
        tick(cluster, group)
        for node in cluster.nodes:
            assert applied[node.node_id] == [("cmd", 1)]

    def test_sequential_proposals_ordered(self):
        cluster = one_region_cluster()
        group, applied = build_group(cluster, cluster.nodes)

        def main():
            for i in range(5):
                yield group.propose(("cmd", i), TS_ZERO)

        cluster.sim.run_process(main())
        leader_id = group.leader_node_id
        assert applied[leader_id] == [("cmd", i) for i in range(5)]

    def test_concurrent_proposals_all_commit(self):
        cluster = one_region_cluster()
        group, applied = build_group(cluster, cluster.nodes)
        futures = [group.propose(("cmd", i), TS_ZERO) for i in range(10)]
        cluster.sim.run()
        assert all(f.done for f in futures)
        assert group.commit_index == 10

    def test_commit_latency_is_local_quorum(self):
        """With all voters in one region, commit should take ~1 intra-region
        RTT plus disk latency, not a WAN round trip."""
        cluster = one_region_cluster()
        group, _ = build_group(cluster, cluster.nodes)

        def main():
            yield group.propose(("cmd",), TS_ZERO)
            return cluster.sim.now

        elapsed = cluster.sim.run_process(main())
        assert elapsed < 5.0

    def test_cross_region_quorum_latency(self):
        """Voters spread across regions pay a WAN RTT to commit."""
        cluster = standard_cluster(["us-east1", "us-west1", "europe-west2"],
                                   nodes_per_region=1, jitter_fraction=0.0)
        group, _ = build_group(cluster, cluster.nodes)

        def main():
            yield group.propose(("cmd",), TS_ZERO)
            return cluster.sim.now

        elapsed = cluster.sim.run_process(main())
        # Nearest quorum from us-east1 is us-west1 (63 ms RTT).
        assert 63.0 <= elapsed <= 70.0


class TestLearners:
    def test_learner_receives_log_but_no_vote(self):
        cluster = standard_cluster(["us-east1", "australia-southeast1"],
                                   nodes_per_region=3, jitter_fraction=0.0)
        east = cluster.nodes_in_region("us-east1")
        aus = cluster.nodes_in_region("australia-southeast1")
        group, applied = build_group(cluster, east, learners=aus[:1])

        def main():
            yield group.propose(("cmd",), TS_ZERO)
            return cluster.sim.now

        elapsed = cluster.sim.run_process(main())
        # Quorum is local: commit latency unaffected by the learner.
        assert elapsed < 5.0
        # But the learner applied the command (eventually).
        tick(cluster, group)
        assert applied[aus[0].node_id] == [("cmd",)]

    def test_learner_cannot_lead(self):
        cluster = one_region_cluster()
        group, _ = build_group(cluster, cluster.nodes[:2],
                               learners=cluster.nodes[2:])
        with pytest.raises(RangeUnavailableError):
            group.set_leader(cluster.nodes[2].node_id)

    def test_quorum_size_ignores_learners(self):
        cluster = one_region_cluster()
        group, _ = build_group(cluster, cluster.nodes[:1],
                               learners=cluster.nodes[1:])
        assert group.quorum_size() == 1


class TestClosedTimestamps:
    def test_closed_ts_propagates_with_entries(self):
        cluster = one_region_cluster()
        group, _ = build_group(cluster, cluster.nodes)

        def main():
            yield group.propose(("cmd",), ts(100))

        cluster.sim.run_process(main())
        tick(cluster, group)
        for peer in group.peers.values():
            assert peer.closed_ts == ts(100)

    def test_closed_ts_monotone_per_peer(self):
        cluster = one_region_cluster()
        group, _ = build_group(cluster, cluster.nodes)

        def main():
            yield group.propose(("a",), ts(100))
            yield group.propose(("b",), ts(50))   # lower: must not regress

        cluster.sim.run_process(main())
        cluster.sim.run()
        for peer in group.peers.values():
            assert peer.closed_ts == ts(100)

    def test_side_transport_advances_idle_followers(self):
        cluster = one_region_cluster()
        group, _ = build_group(cluster, cluster.nodes)
        group.broadcast_closed_ts(ts(500))
        cluster.sim.run()
        for peer in group.peers.values():
            assert peer.closed_ts == ts(500)

    def test_side_transport_requires_caught_up_application(self):
        """A follower that has not applied up to the commit index must not
        adopt a broadcast closed timestamp for data it lacks."""
        cluster = standard_cluster(["us-east1", "australia-southeast1"],
                                   nodes_per_region=2, jitter_fraction=0.0)
        east = cluster.nodes_in_region("us-east1")
        aus = cluster.nodes_in_region("australia-southeast1")
        group, _ = build_group(cluster, east, learners=aus[:1])
        # Propose and immediately broadcast: the learner is behind.
        group.propose(("cmd",), ts(10))
        group.broadcast_closed_ts(ts(999))
        learner = group.peers[aus[0].node_id]
        cluster.sim.run(until=50.0)
        # At 50 ms the append (~70 ms one-way) has not arrived; the
        # broadcast (sent at t=0) arrived but must have been ignored.
        assert learner.closed_ts < ts(999)
        cluster.sim.run()
        assert learner.closed_ts == ts(999)


class TestFailures:
    def test_quorum_loss_times_out(self):
        cluster = one_region_cluster()
        group, _ = build_group(cluster, cluster.nodes, timeout=500.0)
        cluster.network.kill_node(cluster.nodes[1].node_id)
        cluster.network.kill_node(cluster.nodes[2].node_id)

        def main():
            try:
                yield group.propose(("cmd",), TS_ZERO)
            except RangeUnavailableError:
                return "unavailable"
            return "committed"

        assert cluster.sim.run_process(main()) == "unavailable"

    def test_minority_failure_tolerated(self):
        cluster = one_region_cluster()
        group, _ = build_group(cluster, cluster.nodes, timeout=500.0)
        cluster.network.kill_node(cluster.nodes[2].node_id)

        def main():
            yield group.propose(("cmd",), TS_ZERO)
            return "committed"

        assert cluster.sim.run_process(main()) == "committed"

    def test_dead_leader_rejects_proposals(self):
        cluster = one_region_cluster()
        group, _ = build_group(cluster, cluster.nodes)
        cluster.network.kill_node(group.leader_node_id)

        def main():
            try:
                yield group.propose(("cmd",), TS_ZERO)
            except RangeUnavailableError:
                return "rejected"

        assert cluster.sim.run_process(main()) == "rejected"

    def test_leadership_transfer_allows_progress(self):
        cluster = one_region_cluster()
        group, applied = build_group(cluster, cluster.nodes)
        old_leader = group.leader_node_id
        cluster.network.kill_node(old_leader)
        new_leader = cluster.nodes[1].node_id
        group.transfer_leadership(new_leader)
        assert group.term == 2

        def main():
            yield group.propose(("after-failover",), TS_ZERO)
            return "ok"

        assert cluster.sim.run_process(main()) == "ok"
        assert ("after-failover",) in applied[new_leader]

    def test_transfer_to_a_lagging_follower_waits_for_its_log(self):
        """A cooperative transfer to a voter that does not yet hold the
        leader's last entries.  Were it to lead at once, it would stage
        proposal 4 on its own tail (entry 1): the predecessor never
        matches, and 4 and 5 time out with ``_staged`` holding both.
        The target leads only once the entries reach it by message."""
        cluster = one_region_cluster()
        n1, n2, _n3 = cluster.nodes
        group, applied = build_group(cluster, cluster.nodes, timeout=500.0)
        group.propose(("cmd", 1), TS_ZERO)
        cluster.sim.run()
        assert group.commit_index == 1
        middle = [group.propose(("cmd", i), TS_ZERO) for i in (2, 3)]
        leads = []
        group.transfer_leadership(n2.node_id, on_lead=leads.append)
        assert group.peers[n2.node_id].last_index == 1
        assert group.leader_node_id == n1.node_id and leads == []
        tail = [group.propose(("cmd", i), TS_ZERO) for i in (4, 5)]
        cluster.sim.run()
        assert leads == [n2.node_id] and group.leader_node_id == n2.node_id
        assert [f.error for f in middle + tail] == [None] * 4
        assert [f.value.index for f in tail] == [4, 5]
        assert group.commit_index == 5
        assert group.peers[n2.node_id]._staged == {}
        tick(cluster, group)
        for node in cluster.nodes:
            assert applied[node.node_id] == [("cmd", i) for i in range(1, 6)]

    def test_an_append_teaches_no_commit_over_a_stale_entry(self):
        """A follower whose index 2 is a deposed leader's entry receives
        an append carrying commit index 2 for the new leader's entry
        there: it must not adopt it, or it would apply the stale one."""
        cluster = one_region_cluster()
        n1, n2, n3 = cluster.nodes
        group, applied = build_group(cluster, cluster.nodes)
        group.propose(("cmd", 1), TS_ZERO)
        cluster.sim.run()
        faults = cluster.network.faults
        faults.cut_link(n1.node_id, n2.node_id)
        group.propose(("stale",), TS_ZERO)  # reaches n3 only
        group.fail_over(n2.node_id)
        faults.heal_link(n1.node_id, n2.node_id)
        faults.cut_link(n2.node_id, n3.node_id)
        group.propose(("new",), TS_ZERO)  # n1 and n2 commit it
        cluster.sim.run()
        assert group.commit_index == 2
        faults.heal_link(n2.node_id, n3.node_id)
        group.propose(("cmd", 3), TS_ZERO)  # carries commit index 2
        cluster.sim.run()
        peer = group.peers[n3.node_id]
        assert [e.command for e in peer.log] == [("cmd", 1), ("stale",)]
        assert peer.known_commit_index == 1
        assert applied[n3.node_id] == [("cmd", 1)]

    def cut_off_transfer(self):
        """Commit 1, cut the link from the leader to n2, propose 2, then
        transfer to n2, which can never receive 2, and propose 3."""
        cluster = one_region_cluster()
        n1, n2, _n3 = cluster.nodes
        group, _applied = build_group(cluster, cluster.nodes, timeout=500.0)
        group.propose(("cmd", 1), TS_ZERO)
        cluster.sim.run()
        cluster.network.faults.cut_link(n1.node_id, n2.node_id)
        group.propose(("cmd", 2), TS_ZERO)
        leads = []
        group.transfer_leadership(n2.node_id, on_lead=leads.append)
        waiting = group.propose(("cmd", 3), TS_ZERO)
        return cluster, group, leads, waiting

    def test_a_transfer_whose_target_never_catches_up_is_abandoned(self):
        cluster, group, leads, waiting = self.cut_off_transfer()
        n1 = cluster.nodes[0]
        cluster.sim.run(until=RaftGroup.TRANSFER_TIMEOUT_MS - 1.0)
        assert not waiting.done and group.leader_node_id == n1.node_id
        cluster.sim.run()
        # The old leader keeps leading and proposes what waited.
        assert leads == [] and group.leader_node_id == n1.node_id
        assert waiting.error is None and waiting.value.index == 3
        assert group.commit_index == 3 and group.term == 1

    def test_a_failover_drops_the_proposals_a_transfer_held(self):
        cluster, group, leads, waiting = self.cut_off_transfer()
        n1, _n2, n3 = cluster.nodes
        cluster.network.kill_node(n1.node_id)
        assert group.fail_over(n3.node_id) == n3.node_id
        assert isinstance(waiting.error, RangeUnavailableError)
        cluster.sim.run()
        assert leads == [] and group.leader_node_id == n3.node_id

    def test_transfer_to_a_caught_up_follower_is_immediate(self):
        cluster = one_region_cluster()
        n1, n2, _n3 = cluster.nodes
        group, _applied = build_group(cluster, cluster.nodes)
        group.propose(("cmd", 1), TS_ZERO)
        cluster.sim.run()
        leads = []
        group.transfer_leadership(n2.node_id, on_lead=leads.append)
        assert leads == [n2.node_id] and group.term == 2
        # The commit index moves with the leadership.
        assert group.peers[n2.node_id].known_commit_index == 1

    def test_has_quorum_accounting(self):
        cluster = one_region_cluster()
        group, _ = build_group(cluster, cluster.nodes)
        assert group.has_quorum()
        cluster.network.kill_node(cluster.nodes[1].node_id)
        assert group.has_quorum()
        cluster.network.kill_node(cluster.nodes[2].node_id)
        assert not group.has_quorum()


class TestMembership:
    def test_new_peer_catches_up(self):
        cluster = standard_cluster(["us-east1"], nodes_per_region=4,
                                   jitter_fraction=0.0)
        group, applied = build_group(cluster, cluster.nodes[:3])

        def main():
            yield group.propose(("before",), TS_ZERO)

        cluster.sim.run_process(main())
        # Add a learner after the fact: it snapshots the leader's state.
        late = cluster.nodes[3]
        applied[late.node_id] = []
        peer = group.add_peer(late, ReplicaType.NON_VOTER)
        assert peer.last_index == 1
        assert peer.applied_index == 1

    def test_remove_peer(self):
        cluster = one_region_cluster()
        group, _ = build_group(cluster, cluster.nodes)
        group.remove_peer(cluster.nodes[2].node_id)
        assert len(group.voters()) == 2


def count_sends(cluster):
    """Record every ``Network.send`` as (callback name, src id, dst id,
    args); the list fills as the simulation runs."""
    sent = []
    send = cluster.network.send

    def counting(src, dst, callback, *args, **kwargs):
        sent.append((callback.__name__, src.node_id, dst.node_id, args))
        send(src, dst, callback, *args, **kwargs)

    cluster.network.send = counting
    return sent


class TestMessageBudget:
    """Per proposal and follower: one append, carrying the leader's
    commit index, and one ack — only from a follower that lands the entry
    while it is still uncommitted.  No commit update: a range with
    nothing more to append teaches its followers the last commit index
    on the next side-transport tick, one message per follower.  Nothing
    else, and nothing dead."""

    REGIONS = ["us-east1", "us-west1", "europe-west2"]

    def group_with_learners(self):
        cluster = standard_cluster(self.REGIONS, nodes_per_region=3,
                                   jitter_fraction=0.0)
        voters = cluster.nodes_in_region("us-east1")
        learners = [cluster.nodes_in_region(r)[0] for r in self.REGIONS[1:]]
        group, applied = build_group(cluster, voters, learners=learners)
        return cluster, group, applied, learners

    def commit_times(self, cluster, group, n):
        times = {}
        for i in range(n):
            fut = group.propose(("cmd", i), TS_ZERO)
            fut.add_callback(
                lambda f, i=i: times.setdefault(i, cluster.sim.now))
        cluster.sim.run()
        return [times[i] for i in range(n)]

    def test_pipelined_proposals_cost_exactly_six_messages_each(self):
        n = 12
        cluster, group, applied, _learners = self.group_with_learners()
        sent = count_sends(cluster)
        times = self.commit_times(cluster, group, n)
        assert group.commit_index == n and len(times) == n
        by_kind = {}
        for kind, *_rest in sent:
            by_kind[kind] = by_kind.get(kind, 0) + 1
        # Both voter followers land every entry inside the quorum race
        # and ack it; the learners land it ~30 ms after the local quorum
        # committed it and stay silent.
        voter_ids = {p.node.node_id for p in group.voters()}
        acks = [s for s in sent if s[0] == "_on_ack"]
        assert {src for _k, src, _dst, _a in acks} < voter_ids
        assert by_kind == {"_deliver_append": 4 * n, "_on_ack": 2 * n}
        assert len(sent) == 6 * n
        # Every append left before anything committed, so each carried
        # commit index 0: the followers hold the log, unapplied.
        assert all(s[3][5] == 0 for s in sent if s[0] == "_deliver_append")
        followers = [p for p in group.peers.values()
                     if p.node.node_id != group.leader_node_id]
        assert all(p.known_commit_index == 0 for p in followers)
        # One tick — one message per follower — applies all N on all
        # five replicas, in order.
        tick(cluster, group)
        assert len(sent) == 6 * n + len(followers)
        for log in applied.values():
            assert log == [("cmd", i) for i in range(n)]

    def test_a_later_append_carries_the_commit_index(self):
        """A follower learns an entry committed from the next append the
        leader sends it, without a message of its own."""
        cluster, group, applied, learners = self.group_with_learners()
        self.commit_times(cluster, group, 1)
        assert all(len(applied[l.node_id]) == 0 for l in learners)
        sent = count_sends(cluster)
        self.commit_times(cluster, group, 1)
        appends = [s for s in sent if s[0] == "_deliver_append"]
        assert [(s[3][1].index, s[3][5]) for s in appends] == [(2, 1)] * 4
        assert len(sent) == 6
        # Entry 1 applied everywhere on the append of entry 2; entry 2
        # waits for the next append or tick.
        for log in applied.values():
            assert log[:1] == [("cmd", 0)]
        assert all(len(applied[l.node_id]) == 1 for l in learners)

    def test_committing_sends_nothing_and_only_leaders_hand_out_commit(self):
        """The tier-1 form of CI's "Commit index rides on the append":
        ``_advance_commit`` sends no commit update, and only the leader,
        transfer and snapshot paths hand a peer the group's
        ``commit_index``."""
        tree = ast.parse(inspect.getsource(group_module))
        assigners, senders = set(), set()
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if (isinstance(node, ast.Attribute)
                        and node.attr == "_send_commit_update"
                        and isinstance(node.ctx, ast.Load)):
                    senders.add(fn.name)
                if (isinstance(node, ast.Assign)
                        and any(isinstance(t, ast.Attribute)
                                and t.attr == "known_commit_index"
                                for t in node.targets)
                        and "self.commit_index" in ast.unparse(node.value)):
                    assigners.add(fn.name)
        assert senders == {"resync_peer"}
        assert assigners == {"add_peer", "install_snapshot", "fail_over",
                             "_lead"}

    def test_cutting_the_learner_acks_changes_no_commit_time(self):
        cluster, group, _applied, _learners = self.group_with_learners()
        baseline = self.commit_times(cluster, group, 6)
        cluster, group, applied, learners = self.group_with_learners()
        for learner in learners:
            cluster.network.faults.cut_link(learner.node_id,
                                            group.leader_node_id)
        assert self.commit_times(cluster, group, 6) == baseline
        tick(cluster, group)
        for learner in learners:  # the forward direction still flows
            assert len(applied[learner.node_id]) == 6

    def test_resync_acks_the_uncommitted_tail_only(self):
        """A crash-restarted voter is re-sent the whole log: the
        committed prefix needs no acks (nothing waits on them), the
        uncommitted tail still re-acks — and that is what commits it."""
        cluster = one_region_cluster()
        group, applied = build_group(cluster, cluster.nodes)
        _leader, stays, crashes = cluster.nodes
        cluster.network.crash_node(crashes.node_id)
        committed = [group.propose(("cmd", i), TS_ZERO) for i in range(5)]
        cluster.sim.run()
        assert all(f.done for f in committed) and group.commit_index == 5
        # Lose the second voter too: the next two entries cannot commit.
        cluster.network.crash_node(stays.node_id)
        tail = [group.propose(("cmd", i), TS_ZERO) for i in (5, 6)]
        cluster.sim.run()
        assert not any(f.done for f in tail) and group.commit_index == 5
        sent = count_sends(cluster)
        cluster.network.restart_node(crashes.node_id)
        group.resync_peer(crashes.node_id)
        cluster.sim.run()
        appends = [s[3][1].index for s in sent if s[0] == "_deliver_append"]
        acks = [s[3][0] for s in sent if s[0] == "_on_ack"]
        assert appends == [1, 2, 3, 4, 5, 6, 7]
        assert acks == [6, 7]
        assert all(f.done for f in tail) and group.commit_index == 7
        tick(cluster, group)
        assert applied[crashes.node_id] == [("cmd", i) for i in range(7)]

    def test_duplicate_append_of_an_uncommitted_entry_still_re_acks(self):
        """The retransmission path: the peer holds the entry, its ack
        was lost, the leader re-sends — the duplicate must ack again."""
        cluster = one_region_cluster()
        group, _applied = build_group(cluster, cluster.nodes)
        leader, follower, other = cluster.nodes
        cluster.network.crash_node(other.node_id)
        cluster.network.faults.cut_link(follower.node_id, leader.node_id)
        fut = group.propose(("cmd",), TS_ZERO)
        cluster.sim.run()
        assert not fut.done  # the entry landed, its ack did not arrive
        assert group.peers[follower.node_id].last_index == 1
        cluster.network.faults.heal_link(follower.node_id, leader.node_id)
        sent = count_sends(cluster)
        group._send_append(group.leader, group.peers[follower.node_id],
                           group.leader.log[0])
        cluster.sim.run()
        assert [s[0] for s in sent if other.node_id not in s[1:3]] == [
            "_deliver_append", "_on_ack"]
        assert fut.done and group.commit_index == 1
