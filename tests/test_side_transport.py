"""The closed-timestamp side transport ships per node pair, not per
range (``repro.kv.sidetransport``): message cost, staleness, and who is
shipped — split children, merged-away and destroyed ranges, moved
leases, dead leaseholders, peers removed in flight."""

from repro.kv.sidetransport import SideTransport
from repro.sim.clock import TS_ZERO

from .kv_util import REGIONS3, KVTestBed

INTERVAL_MS = 100.0


def sends_by_tick(bed):
    """Record every side-transport message as ``{tick sim-ms: [(src id,
    dst id, [range id per update])]}``; fills as the simulation runs."""
    ticks = {}
    send = bed.cluster.network.send

    def counting(src, dst, callback, *args, **kwargs):
        if callback == SideTransport._deliver:
            ticks.setdefault(bed.sim.now, []).append(
                (src.node_id, dst.node_id,
                 [update[0].range_id for update in args[0]]))
        send(src, dst, callback, *args, **kwargs)

    bed.cluster.network.send = counting
    return ticks


def shipped(ticks):
    """Range ids shipped per tick, in tick order."""
    return [sorted({rid for _s, _d, rids in msgs for rid in rids})
            for _tick, msgs in sorted(ticks.items())]


class TestMessageCost:
    def test_k_idle_ranges_cost_one_message_per_follower_node(self):
        bed = KVTestBed(regions=REGIONS3)
        ranges = [bed.make_range("us-east1") for _ in range(7)]
        (leaseholder,) = {r.leaseholder_node_id for r in ranges}
        #: follower node id -> the ranges it shares with the leaseholder
        shared = {}
        for rng in ranges:
            for node_id in rng.replicas:
                if node_id != leaseholder:
                    shared.setdefault(node_id, []).append(rng.range_id)
        per_range_cost = sum(len(rids) for rids in shared.values())
        assert per_range_cost == 7 * 4 and len(shared) < per_range_cost
        assert len(bed.cluster.side_transports) == 1
        ticks = sends_by_tick(bed)
        before = bed.sim.events_processed
        bed.settle(3 * INTERVAL_MS + 80.0)
        assert sorted(ticks) == [100.0, 200.0, 300.0]
        for msgs in ticks.values():
            # One message per follower node, carrying every shared range.
            assert {src for src, _d, _r in msgs} == {leaseholder}
            assert {dst: rids for _s, dst, rids in msgs} == shared
            assert len(msgs) == len(shared)
        # Nothing else runs on an idle cluster: one event per tick and
        # one per message.
        assert (bed.sim.events_processed - before
                == 3 * (1 + len(shared)))

    def test_each_interval_gets_its_own_ticker(self):
        bed = KVTestBed(regions=REGIONS3)
        fast = bed.make_range("us-east1")
        bed.side_transport_interval_ms = 250.0
        slow = bed.make_range("us-east1")
        assert sorted(bed.cluster.side_transports) == [100.0, 250.0]
        ticks = sends_by_tick(bed)
        bed.settle(500.0)
        by_range = {}
        for tick, msgs in ticks.items():
            for _s, _d, rids in msgs:
                for rid in rids:
                    by_range.setdefault(rid, set()).add(tick)
        assert sorted(by_range[fast.range_id]) == [100.0, 200.0, 300.0,
                                                   400.0, 500.0]
        assert sorted(by_range[slow.range_id]) == [250.0, 500.0]


class TestStaleness:
    def test_follower_closed_ts_is_at_most_an_interval_and_a_flight_old(self):
        """At any instant an idle follower's closed timestamp trails the
        leaseholder's promise by at most one tick interval plus the
        one-way flight — the budget ``LeadPolicy.for_range`` sizes for."""
        bed = KVTestBed(regions=REGIONS3, jitter_fraction=0.02)
        rng = bed.make_range("us-east1", closed_ts_lag_ms=0.0)
        bed.settle(2 * INTERVAL_MS)
        leader = rng.leaseholder_node
        network = bed.cluster.network
        worst = 0.0
        for step in range(400):
            bed.settle(1.7)
            promised = rng.policy.target(leader.clock.now()).physical
            for peer in rng.group.peers.values():
                if peer.node is leader:
                    continue
                flight = (network.latency.rtt(
                    leader.locality.region, leader.locality.zone,
                    peer.node.locality.region,
                    peer.node.locality.zone) / 2.0 * 1.02
                    + network.PROCESSING_MS)
                stale = promised - peer.closed_ts.physical
                assert stale <= INTERVAL_MS + flight + 1e-6
                worst = max(worst, stale)
        assert worst > INTERVAL_MS  # the bound is tight, not vacuous


class TestMembershipOfTheTick:
    def test_split_child_ships_from_the_next_tick_merged_range_stops(self):
        bed = KVTestBed(regions=REGIONS3)
        rng = bed.make_range("us-east1", closed_ts_lag_ms=0.0)
        keyspace = bed.cluster.keyspace
        ticks = sends_by_tick(bed)
        bed.settle(150.0)
        child = keyspace.split(rng.descriptor, "m").rng
        follower = next(p for p in child.group.peers.values()
                        if p.node.node_id != child.leaseholder_node_id)
        inherited = follower.closed_ts
        bed.settle(200.0)  # ticks at 200 and 300 ship both
        assert follower.closed_ts.physical > inherited.physical + 100.0
        keyspace.merge(rng.descriptor, child.descriptor)
        bed.settle(200.0)  # ticks at 400 and 500 ship the parent only
        both = sorted([rng.range_id, child.range_id])
        assert shipped(ticks) == [[rng.range_id], both, both,
                                  [rng.range_id], [rng.range_id]]

    def test_destroyed_range_drops_out_and_the_last_one_stops_the_ticker(
            self):
        bed = KVTestBed(regions=REGIONS3)
        first, second = (bed.make_range("us-east1") for _ in range(2))
        ticks = sends_by_tick(bed)
        bed.settle(150.0)
        first.destroy()
        bed.settle(100.0)
        second.destroy()
        bed.settle(300.0)
        assert shipped(ticks) == [[first.range_id, second.range_id],
                                  [second.range_id]]
        assert bed.cluster.side_transports == {}
        bed.sim.run()  # nothing left on the heap: this returns
        # A range provisioned later starts a fresh ticker.
        third = bed.make_range("us-east1")
        bed.settle(150.0)
        assert shipped(ticks)[-1] == [third.range_id]

    def test_lease_move_changes_the_sender_on_the_next_tick(self):
        bed = KVTestBed(regions=REGIONS3)
        rng = bed.make_range("us-east1")
        old = rng.leaseholder_node_id
        new = next(p.node.node_id for p in rng.group.voters()
                   if p.node.node_id != old)
        ticks = sends_by_tick(bed)
        bed.settle(150.0)
        rng.transfer_lease(new)
        bed.settle(100.0)
        first, second = (msgs for _t, msgs in sorted(ticks.items()))
        assert {src for src, _d, _r in first} == {old}
        assert {src for src, _d, _r in second} == {new}
        assert old in {dst for _s, dst, _r in second}

    def test_dead_leaseholder_ships_nothing(self):
        bed = KVTestBed(regions=REGIONS3)
        rng = bed.make_range("us-east1")
        other = bed.make_range("europe-west2")
        ticks = sends_by_tick(bed)
        bed.cluster.network.kill_node(rng.leaseholder_node_id)
        emitted = rng.closed_emitted
        bed.settle(250.0)
        assert shipped(ticks) == [[other.range_id], [other.range_id]]
        assert rng.closed_emitted == emitted

    def test_peer_removed_in_flight_is_skipped(self):
        bed = KVTestBed(regions=REGIONS3)
        rng = bed.make_range("us-east1", closed_ts_lag_ms=0.0)
        learner = next(p for p in rng.group.non_voters())
        stays = next(p for p in rng.group.non_voters() if p is not learner)
        bed.settle(100.0)  # the tick fires; its messages are in flight
        assert learner.closed_ts == TS_ZERO == stays.closed_ts
        rng.remove_replica(learner.node)
        bed.settle(80.0)   # past every WAN delivery, before the next tick
        assert learner.closed_ts == TS_ZERO  # the orphan was not touched
        assert stays.closed_ts > TS_ZERO
