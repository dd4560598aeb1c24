"""Replicate-queue tests: planning priorities, end-to-end self-healing,
and the verify rows that lose nodes for good.

Quick single-seed runs are tier 1; the multi-seed repair sweep is
marked ``repair`` and deselected by default (``pytest -m repair``).
"""

import pytest

from repro.cluster import LivenessStatus, StoreLiveness
from repro.placement import (
    RepairActionKind,
    ReplicateQueue,
    SurvivalGoal,
    placement_violations,
    zone_config_for_home,
)
from repro.verify import VerifyHarness, run_verify

from .kv_util import REGIONS3, KVTestBed

REPAIR_SCENARIOS = ("kill-node-repair", "region-loss-repair")


def make_repair_bed():
    bed = KVTestBed(regions=REGIONS3, goal=SurvivalGoal.REGION, seed=0)
    rng = bed.make_range(REGIONS3[0])
    for i in range(3):
        bed.do_write(REGIONS3[0], rng, f"k{i}", i)
    liveness = StoreLiveness(bed.cluster, heartbeat_interval_ms=100.0,
                             suspect_after_ms=300.0,
                             time_until_store_dead_ms=600.0)
    queue = ReplicateQueue(bed.cluster, liveness, interval_ms=200.0)
    config = zone_config_for_home(REGIONS3[0], bed.cluster.regions(),
                                  SurvivalGoal.REGION)
    queue.manage(rng, config)
    return bed, rng, config, queue


class TestPlanning:
    def test_healthy_range_plans_nothing(self):
        bed, rng, config, queue = make_repair_bed()
        queue.start()
        bed.sim.run(until=bed.sim.now + 500.0)
        assert queue.plan(rng, config) == []
        assert placement_violations(rng, config, bed.cluster,
                                    queue.liveness) == []

    def test_dead_voter_planned_before_cosmetics(self):
        # Liveness only — the scan loop stays off so the plan can be
        # inspected before any repair fires.
        bed, rng, config, queue = make_repair_bed()
        queue.liveness.start()
        bed.sim.run(until=bed.sim.now + 500.0)
        victim = next(p.node.node_id for p in rng.group.voters()
                      if p.node.node_id != rng.leaseholder_node_id)
        bed.cluster.crash_node(victim)
        bed.sim.run(until=bed.sim.now + 1000.0)  # past store-dead
        assert queue.liveness.aggregate_status(victim) == \
            LivenessStatus.DEAD
        actions = queue.plan(rng, config)
        assert actions, "dead voter must be planned for replacement"
        assert actions[0].kind == RepairActionKind.REPLACE_DEAD_VOTER
        assert actions[0].node_id == victim

    def test_suspect_leaseholder_plans_lease_transfer_first(self):
        bed, rng, config, queue = make_repair_bed()
        queue.liveness.start()
        bed.sim.run(until=bed.sim.now + 500.0)
        bed.cluster.crash_node(rng.leaseholder_node_id)
        # Long enough to be SUSPECT, not yet DEAD.
        bed.sim.run(until=bed.sim.now + 400.0)
        actions = queue.plan(rng, config)
        assert actions
        assert actions[0].kind == RepairActionKind.TRANSFER_LEASE


class TestEndToEndRepair:
    def test_dead_voter_replaced_automatically(self):
        bed, rng, config, queue = make_repair_bed()
        queue.start()
        bed.sim.run(until=bed.sim.now + 500.0)
        victim = next(p.node.node_id for p in rng.group.voters()
                      if p.node.node_id != rng.leaseholder_node_id)
        bed.cluster.crash_node(victim)
        # time_until_store_dead (600ms) + a few scan intervals + the
        # snapshot/catch-up pipeline.
        bed.sim.run(until=bed.sim.now + 2500.0)
        assert victim not in rng.group.peers
        assert len(rng.group.voters()) == config.num_voters
        assert all(not bed.cluster.network.node_is_dead(p.node.node_id)
                   for p in rng.group.voters())
        assert placement_violations(rng, config, bed.cluster,
                                    queue.liveness) == []
        assert queue.metrics.actions.get(
            RepairActionKind.REPLACE_DEAD_VOTER, 0) >= 1
        assert rng.group.config_guard.max_inflight == 1
        # Data survived onto the replacement placement.
        value, _ = bed.do_read(REGIONS3[0], rng, "k1")
        assert value == 1

    def test_under_replicated_gauge_rises_and_clears(self):
        # Drive scans by hand so the gauge can be observed at the exact
        # moment the store turns DEAD, before the repair lands.
        bed, rng, config, queue = make_repair_bed()
        queue.liveness.start()
        bed.sim.run(until=bed.sim.now + 500.0)
        victim = next(p.node.node_id for p in rng.group.voters()
                      if p.node.node_id != rng.leaseholder_node_id)
        bed.cluster.crash_node(victim)
        bed.sim.run(until=bed.sim.now + 1000.0)  # past store-dead
        assert queue.scan() >= 1  # repair chain spawned
        assert queue.metrics.under_replicated_ranges == 1
        bed.sim.run(until=bed.sim.now + 2500.0)  # let the repair land
        queue.scan()
        assert queue.metrics.under_replicated_ranges == 0
        assert queue.metrics.time_to_repair_ms

    def test_returning_node_does_not_duplicate_replicas(self):
        bed, rng, config, queue = make_repair_bed()
        queue.start()
        bed.sim.run(until=bed.sim.now + 500.0)
        victim = next(p.node.node_id for p in rng.group.voters()
                      if p.node.node_id != rng.leaseholder_node_id)
        bed.cluster.crash_node(victim)
        bed.sim.run(until=bed.sim.now + 2500.0)  # repair completes
        bed.cluster.restart_node(victim)
        bed.sim.run(until=bed.sim.now + 1500.0)
        # The revenant store holds no replica slot anymore and the
        # placement stays exactly at target.
        assert victim not in rng.group.peers
        assert len(rng.group.voters()) == config.num_voters
        assert placement_violations(rng, config, bed.cluster,
                                    queue.liveness) == []


class TestRepairScenarios:
    def test_kill_node_repair_heals_and_keeps_invariants(self):
        result = run_verify("kill-node-repair", seed=0)
        assert result.ok, result.render()
        assert result.stats["repair_actions"] >= 1
        assert result.stats["under_replicated"] == 0
        assert result.stats["max_inflight_changes"] == 1
        assert result.stats["liveness_transitions"] >= 2  # suspect, dead
        assert result.audit == []

    def test_region_loss_repair_restores_full_replication(self):
        harness = VerifyHarness(0)
        result = harness.run(scenario="region-loss-repair")
        assert result.ok, result.render()
        # Two of each range's five voters lived in the lost region.
        actions = harness.repair_queue.metrics.actions
        assert actions.get(RepairActionKind.REPLACE_DEAD_VOTER, 0) >= 2
        assert result.stats["under_replicated"] == 0
        # Healed within time_until_store_dead + a few repair intervals
        # (the acceptance bound, with slack for the snapshot pipeline).
        budget = (harness.repair_queue.interval_ms * 4
                  + harness.liveness.time_until_store_dead_ms)
        assert result.stats["time_to_repair_ms"] <= budget

    def test_repair_scenario_reports_are_deterministic(self):
        first, second = (VerifyHarness(2, obs_enabled=True),
                         VerifyHarness(2, obs_enabled=True))
        report_a = first.run(scenario="kill-node-repair")
        report_b = second.run(scenario="kill-node-repair")
        assert report_a.to_json() == report_b.to_json()
        assert report_a.history.dumps() == report_b.history.dumps()
        # The observability spine is part of the determinism contract:
        # same seed must yield byte-identical metrics snapshots and
        # trace trees (span IDs included).
        obs_a, obs_b = first.sim.obs, second.sim.obs
        assert obs_a.registry.to_json() == obs_b.registry.to_json()
        assert obs_a.tracer.roots, "two empty traces prove nothing"
        assert obs_a.tracer.to_json() == obs_b.tracer.to_json()
        ids_a = [s.span_id for s in obs_a.tracer.spans()]
        ids_b = [s.span_id for s in obs_b.tracer.spans()]
        assert ids_a == ids_b


@pytest.mark.repair
@pytest.mark.parametrize("name", REPAIR_SCENARIOS)
@pytest.mark.parametrize("seed", range(5))
def test_repair_sweep(name, seed):
    """Multi-seed self-healing sweep (the PR's acceptance bar)."""
    result = run_verify(name, seed=seed)
    assert result.ok, f"{name} seed={seed}\n{result.render()}"
    assert result.stats["repair_actions"] >= 1
    assert result.stats["max_inflight_changes"] == 1
