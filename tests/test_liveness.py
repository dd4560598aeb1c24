"""Store-liveness tests: epoch heartbeats, LIVE/SUSPECT/DEAD gating,
and the aggregate (majority-vote) cluster view."""

import pytest

from repro.cluster import LivenessStatus, StoreLiveness, standard_cluster

from .kv_util import isolate_region

REGIONS3 = ["us-east1", "europe-west2", "asia-northeast1"]


def make_liveness(nodes_per_region=2, seed=0, **kwargs):
    cluster = standard_cluster(REGIONS3, nodes_per_region=nodes_per_region,
                               seed=seed)
    defaults = dict(heartbeat_interval_ms=100.0, suspect_after_ms=300.0,
                    time_until_store_dead_ms=600.0)
    defaults.update(kwargs)
    liveness = StoreLiveness(cluster, **defaults)
    liveness.start()
    return cluster, liveness


class TestStatusTransitions:
    def test_steady_state_everyone_live(self):
        cluster, liveness = make_liveness()
        cluster.sim.run(until=1000.0)
        for node in cluster.nodes:
            assert liveness.aggregate_status(node.node_id) == \
                LivenessStatus.LIVE
        assert liveness.heartbeats_sent > 0
        assert liveness.transitions == []

    def test_startup_grace_no_instant_death(self):
        cluster, liveness = make_liveness()
        # Before a single heartbeat interval has elapsed nobody has been
        # heard from, yet nobody may be declared dead or even suspect.
        cluster.sim.run(until=50.0)
        for node in cluster.nodes:
            assert liveness.aggregate_status(node.node_id) == \
                LivenessStatus.LIVE

    def test_crash_goes_suspect_then_dead(self):
        cluster, liveness = make_liveness()
        cluster.sim.run(until=500.0)
        victim = cluster.nodes[0].node_id
        cluster.crash_node(victim)
        crash_at = cluster.sim.now
        # Inside the suspect window: still LIVE (last heartbeat recent).
        cluster.sim.run(until=crash_at + 200.0)
        assert liveness.aggregate_status(victim) == LivenessStatus.LIVE
        # Past suspect_after but before time_until_store_dead: SUSPECT.
        cluster.sim.run(until=crash_at + 450.0)
        assert liveness.aggregate_status(victim) == LivenessStatus.SUSPECT
        # Past time_until_store_dead: DEAD.
        cluster.sim.run(until=crash_at + 800.0)
        assert liveness.aggregate_status(victim) == LivenessStatus.DEAD
        assert victim in liveness.dead_node_ids()
        assert victim not in liveness.live_node_ids()

    def test_transitions_recorded_in_order(self):
        cluster, liveness = make_liveness()
        victim = cluster.nodes[0].node_id

        def probe():
            while True:
                liveness.aggregate_status(victim)
                yield cluster.sim.sleep(50.0)

        cluster.sim.spawn(probe(), name="probe")
        cluster.sim.run(until=500.0)
        cluster.crash_node(victim)
        cluster.sim.run(until=2000.0)
        seen = [(old, new) for _t, nid, old, new in liveness.transitions
                if nid == victim]
        assert seen == [(LivenessStatus.LIVE, LivenessStatus.SUSPECT),
                        (LivenessStatus.SUSPECT, LivenessStatus.DEAD)]

    def test_restart_bumps_epoch_and_revives(self):
        cluster, liveness = make_liveness()
        cluster.sim.run(until=500.0)
        victim = cluster.nodes[0].node_id
        epoch_before = liveness.epoch(victim)
        cluster.crash_node(victim)
        cluster.sim.run(until=cluster.sim.now + 1000.0)
        assert liveness.aggregate_status(victim) == LivenessStatus.DEAD
        cluster.restart_node(victim)
        assert liveness.epoch(victim) == epoch_before + 1
        # A couple of heartbeat intervals later the cluster sees it LIVE
        # again, and the restarted node does not misjudge its peers.
        cluster.sim.run(until=cluster.sim.now + 400.0)
        assert liveness.aggregate_status(victim) == LivenessStatus.LIVE
        for node in cluster.nodes:
            assert liveness.status(node.node_id, from_node_id=victim) == \
                LivenessStatus.LIVE

    def test_partitioned_region_declared_dead_by_majority(self):
        cluster, liveness = make_liveness()
        cluster.sim.run(until=500.0)
        isolate_region(cluster, REGIONS3[0])
        cluster.sim.run(until=cluster.sim.now + 1000.0)
        cut = cluster.nodes_in_region(REGIONS3[0])
        for node in cut:
            # The majority (two connected regions) outvotes the cut-off
            # region's self-view.
            assert liveness.aggregate_status(node.node_id) == \
                LivenessStatus.DEAD
        survivor = cluster.nodes_in_region(REGIONS3[1])[0]
        assert liveness.aggregate_status(survivor.node_id) == \
            LivenessStatus.LIVE

    def test_per_observer_views_are_directional(self):
        cluster, liveness = make_liveness()
        cluster.sim.run(until=500.0)
        cut = cluster.nodes_in_region(REGIONS3[0])[0]
        observer = cluster.nodes_in_region(REGIONS3[1])[0]
        isolate_region(cluster, REGIONS3[0])
        cluster.sim.run(until=cluster.sim.now + 1000.0)
        # The outside observer stopped hearing from the cut node...
        assert liveness.status(cut.node_id,
                               from_node_id=observer.node_id) == \
            LivenessStatus.DEAD
        # ...and a store always considers itself live.
        assert liveness.status(cut.node_id, from_node_id=cut.node_id) == \
            LivenessStatus.LIVE


class TestConfigValidation:
    def test_dead_threshold_must_exceed_suspect(self):
        cluster = standard_cluster(REGIONS3, nodes_per_region=1, seed=0)
        with pytest.raises(ValueError):
            StoreLiveness(cluster, heartbeat_interval_ms=100.0,
                          suspect_after_ms=500.0,
                          time_until_store_dead_ms=400.0)

    def test_suspect_defaults_to_multiple_of_interval(self):
        cluster = standard_cluster(REGIONS3, nodes_per_region=1, seed=0)
        liveness = StoreLiveness(cluster, heartbeat_interval_ms=50.0)
        assert liveness.suspect_after_ms == pytest.approx(
            StoreLiveness.SUSPECT_MULTIPLE * 50.0)

    def test_start_is_idempotent(self):
        cluster, liveness = make_liveness()
        processes_before = liveness.heartbeats_sent
        liveness.start()
        cluster.sim.run(until=300.0)
        # Heartbeat volume reflects one loop per node, not two: with
        # 6 nodes each heartbeating 5 peers every 100ms for ~3 ticks,
        # doubled loops would overshoot this bound.
        assert liveness.heartbeats_sent <= 6 * 5 * 4
