"""Clock-fault nemesis surface and clock-safety monitor.

Unit tests for the dynamic :class:`ClockModel` mutators (drift, jump,
freeze), the re-arming ``HLC.wait_until`` under mid-wait clock faults,
HLC monotonicity edge cases, the :class:`ClockMonitor` measurement
/ fencing / serve-side rejection logic, and the clock reading every
one-way message carries.  The end-to-end chaos and
fencing-ablation sweeps live in ``test_clock_sweep.py`` (tier-2,
``pytest -m clock``).
"""

import pytest

from repro.cluster import StoreLiveness
from repro.cluster.clocksync import install_clock_monitor
from repro.errors import ClockFencedError, ClockOutlierRejectedError
from repro.kv.commands import SetTxnRecordCommand
from repro.sim.clock import HLC, ClockModel, Timestamp
from repro.sim.core import Simulator

from .kv_util import KVTestBed, REGIONS3


def _model(sim, **kwargs):
    kwargs.setdefault("skew_fraction", 0.0)  # base offsets 0: exact asserts
    return ClockModel(250.0, seed=0, sim=sim, **kwargs)


def _advance(sim, ms):
    sim.run(until=sim.now + ms)


class TestClockModelFaults:
    def test_drift_accumulates_linearly(self):
        sim = Simulator()
        model = _model(sim)
        model.set_drift(1, 0.01)
        _advance(sim, 100.0)
        assert model.effective_offset(1) == pytest.approx(1.0)
        assert model.is_faulted(1)

    def test_piecewise_drift_keeps_prior_error(self):
        sim = Simulator()
        model = _model(sim)
        model.set_drift(1, 0.01)
        _advance(sim, 100.0)          # +1.0
        model.set_drift(1, -0.02)
        _advance(sim, 50.0)           # -1.0
        assert model.effective_offset(1) == pytest.approx(0.0)

    def test_clear_drift_retains_accumulated_error(self):
        sim = Simulator()
        model = _model(sim)
        model.set_drift(1, 0.05)
        _advance(sim, 100.0)
        model.clear_drift(1)
        _advance(sim, 200.0)
        assert model.effective_offset(1) == pytest.approx(5.0)

    def test_jumps_stack_in_either_direction(self):
        sim = Simulator()
        model = _model(sim)
        model.jump(1, 100.0)
        assert model.effective_offset(1) == pytest.approx(100.0)
        model.jump(1, -250.0)
        assert model.effective_offset(1) == pytest.approx(-150.0)

    def test_freeze_holds_the_reading(self):
        sim = Simulator()
        model = _model(sim)
        _advance(sim, 100.0)
        model.freeze(1)
        _advance(sim, 500.0)
        assert model.physical_now(1, sim.now) == pytest.approx(100.0)
        assert model.effective_offset(1) == pytest.approx(-500.0)

    def test_jump_while_frozen_moves_the_frozen_value(self):
        sim = Simulator()
        model = _model(sim)
        _advance(sim, 100.0)
        model.freeze(1)
        model.jump(1, 50.0)
        _advance(sim, 300.0)
        assert model.physical_now(1, sim.now) == pytest.approx(150.0)

    def test_unfreeze_resumes_behind_true_time(self):
        sim = Simulator()
        model = _model(sim)
        _advance(sim, 100.0)
        model.freeze(1)
        _advance(sim, 300.0)
        model.unfreeze(1)
        assert model.physical_now(1, sim.now) == pytest.approx(100.0)
        _advance(sim, 50.0)  # ticking again, still 300ms behind
        assert model.physical_now(1, sim.now) == pytest.approx(150.0)

    def test_heal_restores_base_offset(self):
        sim = Simulator()
        model = _model(sim)
        model.jump(1, 1000.0)
        model.set_drift(2, 0.1)
        model.heal(1)
        assert model.effective_offset(1) == 0.0
        assert not model.is_faulted(1)
        assert model.is_faulted(2)
        model.heal_all()
        assert not model.is_faulted(2)

    def test_faults_are_per_node(self):
        sim = Simulator()
        model = _model(sim)
        model.jump(1, 500.0)
        assert model.effective_offset(2) == 0.0
        assert not model.is_faulted(2)

    def test_faults_require_a_bound_simulator(self):
        model = ClockModel(250.0, seed=0)
        with pytest.raises(RuntimeError):
            model.jump(1, 100.0)


class TestOffsetDeterminism:
    """Regression for the eager-offset rewrite: the static assignment
    depends only on (seed, node_id), never on query order."""

    IDS = [50, 3, 1, 64, 20, 7]

    def test_query_order_independence(self):
        a = ClockModel(max_offset=250.0, seed=7)
        b = ClockModel(max_offset=250.0, seed=7)
        seen_a = {i: a.offset_for(i) for i in self.IDS}
        seen_b = {i: b.offset_for(i) for i in reversed(self.IDS)}
        assert seen_a == seen_b

    def test_extension_beyond_prealloc_is_deterministic(self):
        a = ClockModel(max_offset=250.0, seed=9)
        b = ClockModel(max_offset=250.0, seed=9)
        direct = a.offset_for(100)
        for i in range(1, 100):
            b.offset_for(i)
        assert b.offset_for(100) == direct

    def test_non_positive_ids_are_stable_and_bounded(self):
        a = ClockModel(max_offset=250.0, seed=3)
        b = ClockModel(max_offset=250.0, seed=3)
        for node_id in (0, -1, -5):
            off = a.offset_for(node_id)
            assert off == a.offset_for(node_id) == b.offset_for(node_id)
            assert abs(off) <= 250.0 / 2


class TestWaitUntilRearm:
    """Commit wait must re-check the clock on every wakeup: a single
    fixed-delay timer silently shortens the wait under clock faults."""

    def _wait(self, sim, clock, target_ms):
        def proc():
            yield clock.wait_until(Timestamp(target_ms, 0, synthetic=True))
            return sim.now

        return sim.run_process(proc())

    def test_backward_jump_mid_wait_extends_the_wait(self):
        sim = Simulator()
        model = _model(sim)
        clock = HLC(sim, node_id=1, skew=model)
        sim.call_after(50.0, lambda: model.jump(1, -40.0))
        assert self._wait(sim, clock, 100.0) == pytest.approx(140.0)

    def test_frozen_clock_defers_until_thawed(self):
        sim = Simulator()
        model = _model(sim)
        clock = HLC(sim, node_id=1, skew=model)
        sim.call_after(30.0, lambda: model.freeze(1))
        sim.call_after(200.0, lambda: model.unfreeze(1))
        # Frozen at reading 30 until sim-time 200, then 170ms behind:
        # the clock passes 100 only at sim-time 270.
        assert self._wait(sim, clock, 100.0) >= 270.0

    def test_forward_jump_resolves_at_scheduled_wake(self):
        sim = Simulator()
        model = _model(sim)
        clock = HLC(sim, node_id=1, skew=model)
        sim.call_after(10.0, lambda: model.jump(1, 500.0))
        # Re-arm only re-checks at the originally scheduled wake: the
        # jump never shortens an in-flight wait below its first arm.
        assert self._wait(sim, clock, 100.0) == pytest.approx(100.0)


class TestHLCUnderFaults:
    def test_now_monotone_across_backward_jump(self):
        sim = Simulator()
        model = _model(sim)
        clock = HLC(sim, node_id=1, skew=model)
        _advance(sim, 100.0)
        before = clock.now()
        model.jump(1, -50.0)
        after = clock.now()
        assert after > before
        assert after.physical == before.physical  # logical tiebreak

    def test_frozen_clock_burns_the_logical_counter(self):
        sim = Simulator()
        model = _model(sim)
        clock = HLC(sim, node_id=1, skew=model)
        _advance(sim, 10.0)
        model.freeze(1)
        readings = [clock.now() for _ in range(100)]
        assert all(b > a for a, b in zip(readings, readings[1:]))
        assert readings[-1].physical == readings[0].physical
        assert readings[-1].logical == readings[0].logical + 99

    def test_update_then_backward_jump_stays_monotone(self):
        sim = Simulator()
        model = _model(sim)
        clock = HLC(sim, node_id=1, skew=model)
        high = clock.update(Timestamp(500.0, 3))
        model.jump(1, -200.0)
        assert clock.now() > high

    def test_synthetic_update_never_advances_a_faulted_clock(self):
        sim = Simulator()
        model = _model(sim)
        model.jump(1, -100.0)
        clock = HLC(sim, node_id=1, skew=model)
        _advance(sim, 200.0)
        after = clock.update(Timestamp(1e6, 0, synthetic=True))
        assert after.physical == pytest.approx(100.0)


class TestClockMonitor:
    def _bed(self):
        bed = KVTestBed(regions=REGIONS3, seed=0)
        monitor = install_clock_monitor(bed.cluster)
        return bed, monitor

    def _feed(self, monitor, observer, peers):
        """Deliver one honest clock reading from each peer to observer."""
        for peer in peers:
            monitor.observe(observer.node_id, peer.node_id,
                            peer.clock.physical_now())

    def test_victim_majority_vote_self_fences(self):
        bed, monitor = self._bed()
        cluster = bed.cluster
        victim = cluster.gateway_for_region("us-east1", 1)
        cluster.clock.jump(victim.node_id, 2000.0)
        peers = [n for n in cluster.nodes
                 if n.node_id != victim.node_id][:3]
        self._feed(monitor, victim, peers)
        assert victim.fenced
        assert len(monitor.fence_events) == 1
        _when, node_id, worst = monitor.fence_events[0]
        assert node_id == victim.node_id
        assert worst == pytest.approx(2000.0, abs=300.0)
        assert cluster.network.node_is_dead(victim.node_id)

    def test_healthy_observer_survives_one_bad_peer(self):
        bed, monitor = self._bed()
        cluster = bed.cluster
        victim = cluster.gateway_for_region("us-east1", 1)
        observer = cluster.gateway_for_region("europe-west2")
        cluster.clock.jump(victim.node_id, 2000.0)
        healthy = [n for n in cluster.nodes
                   if n.node_id not in (victim.node_id, observer.node_id)][:2]
        self._feed(monitor, observer, healthy + [victim])
        assert not observer.fenced
        assert monitor.fence_events == []
        # ...but the observer did measure the outlier correctly.
        assert abs(monitor.estimate(observer.node_id,
                                    victim.node_id)) > monitor.max_offset

    def test_min_peers_guards_a_single_bad_link(self):
        bed, monitor = self._bed()
        cluster = bed.cluster
        victim = cluster.gateway_for_region("us-east1", 1)
        cluster.clock.jump(victim.node_id, 2000.0)
        peer = cluster.gateway_for_region("asia-northeast1")
        self._feed(monitor, victim, [peer])
        assert not victim.fenced
        assert monitor.fence_events == []

    def test_fencing_disabled_records_detection_only(self):
        bed, monitor = self._bed()
        monitor.fence_enabled = False
        cluster = bed.cluster
        victim = cluster.gateway_for_region("us-east1", 1)
        cluster.clock.jump(victim.node_id, 2000.0)
        peers = [n for n in cluster.nodes
                 if n.node_id != victim.node_id][:3]
        self._feed(monitor, victim, peers)
        assert not victim.fenced
        assert victim.alive
        assert monitor.fence_events == []
        assert len(monitor.outlier_detections) >= 1

    def test_check_request_rejects_out_of_contract_timestamps(self):
        bed, monitor = self._bed()
        node = bed.cluster.gateway_for_region("us-east1")
        local = node.clock.physical_now()
        with pytest.raises(ClockOutlierRejectedError):
            monitor.check_request(node, Timestamp(local + 1000.0))
        # Synthetic timestamps promise nothing about any clock: exempt.
        monitor.check_request(node, Timestamp(local + 1000.0,
                                              synthetic=True))
        # In-contract senders (max_offset + flight slack) always pass.
        monitor.check_request(node, Timestamp(local + 100.0))

    def test_fenced_node_refuses_everything(self):
        bed, monitor = self._bed()
        node = bed.cluster.gateway_for_region("us-east1")
        node.fenced = True
        with pytest.raises(ClockFencedError):
            monitor.check_request(node, Timestamp(0.0))

    def test_restart_clears_fence_and_estimates(self):
        bed, monitor = self._bed()
        cluster = bed.cluster
        victim = cluster.gateway_for_region("us-east1", 1)
        cluster.clock.jump(victim.node_id, 2000.0)
        peers = [n for n in cluster.nodes
                 if n.node_id != victim.node_id][:3]
        self._feed(monitor, victim, peers)
        assert victim.fenced
        cluster.clock.heal(victim.node_id)  # "restart step-syncs NTP"
        cluster.restart_node(victim.node_id)
        assert not victim.fenced
        assert monitor.estimate(victim.node_id, peers[0].node_id) is None
        assert monitor.estimate(peers[0].node_id, victim.node_id) is None


class TestClockPiggyback:
    """Every one-way message carries its sender's clock reading: Raft
    appends and acks, the side transport and liveness heartbeats
    alike."""

    def _drive(self, bed):
        """One bare Raft proposal, one side-transport tick (at 1500 ms)
        and one heartbeat round (200..1800 ms); all delivered by 2100
        ms, before the next round starts.  No RPCs."""
        rng = bed.make_range("us-east1")
        liveness = StoreLiveness(bed.cluster, heartbeat_interval_ms=2000.0,
                                 time_until_store_dead_ms=10_000.0)
        liveness.start()
        proposal = rng.group.propose(
            SetTxnRecordCommand(txn_id=1, status="committed",
                                commit_ts=None), rng.closed_target())
        bed.settle(2100.0)
        assert proposal.done and proposal.error is None
        assert liveness.heartbeats_sent == 9 * 8

    def test_every_one_way_message_carries_a_reading(self):
        bed = KVTestBed(regions=REGIONS3, side_transport_interval_ms=1500.0)
        install_clock_monitor(bed.cluster)
        net, registry = bed.cluster.network, bed.sim.obs.registry
        sent = net.messages_sent
        observed = registry.value("clock.observations")
        self._drive(bed)
        # 4 appends + 2 acks, 4 side-transport messages (which also
        # carry the commit index), 72 heartbeats.
        assert net.messages_sent - sent == 82
        assert registry.value("clock.observations") - observed == 82

    def test_no_monitor_no_readings(self):
        bed = KVTestBed(regions=REGIONS3, side_transport_interval_ms=1500.0)
        self._drive(bed)
        assert bed.sim.obs.registry.instruments("clock.observations") == []
