"""Safe Raft membership changes: learner join, snapshot catch-up,
promotion, and the one-at-a-time config-change discipline.

The acceptance bar for the self-healing PR: a range never has two
in-flight config changes and never loses a live quorum during a
replacement.
"""

import pytest

from repro.placement import SurvivalGoal
from repro.raft import ConfigChangeError
from repro.raft.group import ReplicaType
from repro.raft.membership import ConfigChangeGuard

from .kv_util import REGIONS3, KVTestBed


def make_bed():
    bed = KVTestBed(regions=REGIONS3, goal=SurvivalGoal.REGION, seed=0)
    rng = bed.make_range(REGIONS3[0])
    # A non-trivial log for snapshots/catch-up to move.
    for i in range(4):
        bed.do_write(REGIONS3[0], rng, f"k{i}", i)
    return bed, rng


def spare_nodes(bed, rng):
    members = set(rng.group.peers)
    return [n for n in bed.cluster.nodes if n.node_id not in members]


def run_coroutine(bed, gen):
    process = bed.sim.spawn(gen)
    return bed.sim.run_until_future(process)


class TestGuard:
    def test_conflicting_acquire_raises(self):
        guard = ConfigChangeGuard(range_id=7)
        guard.acquire("first", 0.0)
        with pytest.raises(ConfigChangeError, match="first"):
            guard.acquire("second", 1.0)
        guard.release(2.0)
        guard.acquire("second", 3.0)
        guard.release(4.0)
        assert guard.changes == 2
        assert guard.max_inflight == 1
        assert [d for d, _s, _e in guard.history] == ["first", "second"]

    def test_release_without_acquire_raises(self):
        guard = ConfigChangeGuard(range_id=7)
        with pytest.raises(ConfigChangeError):
            guard.release(0.0)


class TestSafeAddPipeline:
    def test_learner_join_snapshot_catchup_promote(self):
        bed, rng = make_bed()
        joiner = spare_nodes(bed, rng)[0]
        voters_before = len(rng.group.voters())
        replica = run_coroutine(bed, rng.add_replica_safely(joiner))
        peer = rng.group.peers[joiner.node_id]
        assert peer.replica_type == ReplicaType.VOTER
        assert len(rng.group.voters()) == voters_before + 1
        # Snapshot + live stream left the new replica fully caught up.
        assert peer.last_index >= rng.group.commit_index
        assert rng.group.log_complete(peer)
        assert replica.store.get("k3", rng.group.leader.closed_ts) is not None
        assert rng.group.config_guard.max_inflight == 1
        assert rng.group.config_guard.in_flight is None

    def test_add_non_voter_never_enters_electorate(self):
        bed, rng = make_bed()
        joiner = spare_nodes(bed, rng)[0]
        voters_before = len(rng.group.voters())
        run_coroutine(bed,
                      rng.add_replica_safely(joiner, ReplicaType.NON_VOTER))
        assert len(rng.group.voters()) == voters_before
        assert rng.group.peers[joiner.node_id].replica_type == \
            ReplicaType.NON_VOTER

    def test_a_bug_is_not_rolled_back_as_a_failed_change(self, monkeypatch):
        """Only a refused change, a lost snapshot RPC or a learner that
        never caught up rolls the learner back; a bug surfaces from the
        run as it is, and the guard is still released."""
        bed, rng = make_bed()
        joiner = spare_nodes(bed, rng)[0]

        def add_learner(node):
            raise TypeError("bug in a membership change")

        monkeypatch.setattr(rng.group, "add_learner", add_learner)
        with pytest.raises(TypeError, match="bug in a membership change"):
            run_coroutine(bed, rng.add_replica_safely(joiner))
        assert joiner.node_id in rng.replicas
        assert rng.group.config_guard.in_flight is None

    def test_overlapping_change_raises_not_queues(self):
        bed, rng = make_bed()
        first, second = spare_nodes(bed, rng)[:2]
        process = bed.sim.spawn(rng.add_replica_safely(first))
        # Let the pipeline start (snapshot in transit, guard held)...
        bed.sim.run(until=bed.sim.now + 2.0)
        assert rng.group.config_guard.in_flight is not None
        # ...then any other membership change must fail loudly.
        with pytest.raises(ConfigChangeError):
            rng.add_replica(second)
        with pytest.raises(ConfigChangeError):
            bed.sim.run_until_future(
                bed.sim.spawn(rng.add_replica_safely(second)))
        # The original change is unharmed and completes.
        bed.sim.run_until_future(process)
        assert first.node_id in rng.group.peers
        assert second.node_id not in rng.group.peers
        assert rng.group.config_guard.max_inflight == 1

    def test_failed_add_rolls_back_cleanly(self):
        bed, rng = make_bed()
        joiner = spare_nodes(bed, rng)[0]
        process = bed.sim.spawn(rng.add_replica_safely(joiner))
        bed.cluster.crash_node(joiner.node_id)
        with pytest.raises(Exception):
            bed.sim.run_until_future(process)
        assert joiner.node_id not in rng.group.peers
        assert joiner.node_id not in rng.replicas
        assert rng.group.config_guard.in_flight is None
        # The range is exactly as before: a fresh add works.
        bed.cluster.restart_node(joiner.node_id)
        run_coroutine(bed, rng.add_replica_safely(joiner))
        assert joiner.node_id in rng.group.peers


class TestPromotionSafety:
    def test_promote_requires_caught_up_log(self):
        bed, rng = make_bed()
        joiner = spare_nodes(bed, rng)[0]
        replica_cls = type(rng.replicas[rng.leaseholder_node_id])
        rng.replicas[joiner.node_id] = replica_cls(rng, joiner)
        rng.group.add_learner(joiner)  # empty log, leader has entries
        with pytest.raises(ConfigChangeError, match="not caught up"):
            rng.group.promote_learner(joiner.node_id)

    def test_promote_rejects_non_learner(self):
        bed, rng = make_bed()
        voter_id = next(iter(rng.group.peers))
        with pytest.raises(ConfigChangeError):
            rng.group.promote_learner(voter_id)


class TestRemovalSafety:
    def test_refuses_to_remove_leaseholder(self):
        bed, rng = make_bed()
        with pytest.raises(ConfigChangeError, match="leaseholder"):
            rng.remove_replica_safely(rng.leaseholder_node_id)

    def test_refuses_removal_that_loses_live_quorum(self):
        bed, rng = make_bed()
        voters = [p.node.node_id for p in rng.group.voters()
                  if p.node.node_id != rng.leaseholder_node_id]
        # 5 voters, kill 2: quorum (3) barely survives.  Removing a
        # *live* voter would leave 4 voters with only 2 live — refuse.
        bed.cluster.crash_node(voters[0])
        bed.cluster.crash_node(voters[1])
        with pytest.raises(ConfigChangeError, match="quorum"):
            rng.remove_replica_safely(voters[2])
        # Removing a *dead* voter is fine: 4 voters, 3 live.
        rng.remove_replica_safely(voters[0])
        assert voters[0] not in rng.group.peers

    def test_demote_refuses_leader(self):
        bed, rng = make_bed()
        with pytest.raises(ConfigChangeError, match="leader"):
            rng.group.demote_voter(rng.group.leader_node_id)


class TestReplacementInvariants:
    def test_replacement_one_at_a_time_and_quorum_safe(self):
        """The PR's acceptance criterion, asserted directly: replacing a
        dead voter never overlaps config changes and never drops the
        range below a live quorum — sampled every sim-millisecond."""
        bed, rng = make_bed()
        guard = rng.group.config_guard
        dead = next(p.node.node_id for p in rng.group.voters()
                    if p.node.node_id != rng.leaseholder_node_id)
        bed.cluster.crash_node(dead)
        joiner = spare_nodes(bed, rng)[0]
        samples = []
        done = []

        def monitor():
            while not done:
                samples.append((rng.group.has_quorum(),
                                guard.max_inflight))
                yield bed.sim.sleep(1.0)

        def replacement():
            yield from rng.add_replica_safely(joiner)
            rng.remove_replica_safely(dead)
            done.append(True)

        bed.sim.spawn(monitor(), name="invariant-monitor")
        process = bed.sim.spawn(replacement(), name="replacement")
        bed.sim.run_until_future(process)

        assert len(samples) > 5
        assert all(has_quorum for has_quorum, _ in samples), \
            "range lost a live quorum mid-replacement"
        assert guard.max_inflight == 1, \
            "two config changes were in flight concurrently"
        assert dead not in rng.group.peers
        assert joiner.node_id in rng.group.peers
        assert len(rng.group.voters()) == 5

    def test_writes_survive_concurrent_replacement(self):
        """Client writes issued while a replacement is in flight are
        acked and durable afterwards."""
        bed, rng = make_bed()
        dead = next(p.node.node_id for p in rng.group.voters()
                    if p.node.node_id != rng.leaseholder_node_id)
        bed.cluster.crash_node(dead)
        joiner = spare_nodes(bed, rng)[0]
        process = bed.sim.spawn(rng.add_replica_safely(joiner))
        bed.do_write(REGIONS3[0], rng, "mid-repair", 42)
        bed.sim.run_until_future(process)
        rng.remove_replica_safely(dead)
        value, _ = bed.do_read(REGIONS3[0], rng, "mid-repair")
        assert value == 42
