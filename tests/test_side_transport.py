"""The closed-timestamp side transport ships per node pair, not per
range (``repro.kv.sidetransport``): message cost, staleness, and who is
shipped — split children, merged-away and destroyed ranges, moved
leases, dead leaseholders, peers removed in flight — and what the
per-policy stream keeps exact: followers that were behind, moved leases,
fenced targets and closed timestamps that ran ahead of their policy."""

import pytest

from repro.cluster.clocksync import install_clock_monitor
from repro.kv.range import Range
from repro.raft.group import ClosedTsReceiver, RaftGroup, ReplicaType
from repro.sim.clock import TS_ZERO

from .kv_util import REGIONS3, KVTestBed

INTERVAL_MS = 100.0


def closed_on(node):
    """``{range id: closed timestamp}`` of every replica ``node`` holds."""
    closed = {}
    for range_id, replica in node.replicas.items():
        peer = replica.range.group.peers.get(node.node_id)
        if peer is not None:
            closed[range_id] = peer.closed_ts
    return closed


def sends_by_tick(bed):
    """Record every side-transport message as ``{tick sim-ms: [(src id,
    dst id, [range id])]}``, the ranges being those whose replica on the
    destination the message raised — read from the followers' closed
    timestamps as each message is delivered, not from its payload.
    Fills as the simulation runs; ranges whose target does not move (a
    lag policy still before time zero) never show."""
    ticks = {}
    send = bed.cluster.network.send

    def counting(src, dst, callback, *args, **kwargs):
        if getattr(callback, "__func__", None) is ClosedTsReceiver.deliver:
            raised = []
            ticks.setdefault(bed.sim.now, []).append(
                (src.node_id, dst.node_id, raised))

            def observed(*a):
                before = closed_on(dst)
                callback(*a)
                raised.extend(sorted(
                    rid for rid, ts in closed_on(dst).items()
                    if rid in before and ts > before[rid]))

            send(src, dst, observed, *args, **kwargs)
            return
        send(src, dst, callback, *args, **kwargs)

    bed.cluster.network.send = counting
    return ticks


def shipped(ticks):
    """Range ids shipped per tick, in tick order."""
    return [sorted({rid for _s, _d, rids in msgs for rid in rids})
            for _tick, msgs in sorted(ticks.items())]


def followers(rng):
    return [p for p in rng.group.peers.values()
            if p.node.node_id != rng.leaseholder_node_id]


class TestMessageCost:
    def test_k_idle_ranges_cost_one_message_per_follower_node(self):
        bed = KVTestBed(regions=REGIONS3)
        ranges = [bed.make_range("us-east1", closed_ts_lag_ms=0.0)
                  for _ in range(7)]
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
        fast = bed.make_range("us-east1", closed_ts_lag_ms=0.0)
        bed.side_transport_interval_ms = 250.0
        slow = bed.make_range("us-east1", closed_ts_lag_ms=0.0)
        assert sorted(bed.cluster.side_transports) == [100.0, 250.0]
        ticks = sends_by_tick(bed)
        bed.settle(580.0)  # the ticks at 500 land before the next one
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
        first, second = (bed.make_range("us-east1", closed_ts_lag_ms=0.0)
                         for _ in range(2))
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
        third = bed.make_range("us-east1", closed_ts_lag_ms=0.0)
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
        rng = bed.make_range("us-east1", closed_ts_lag_ms=0.0)
        other = bed.make_range("europe-west2", closed_ts_lag_ms=0.0)
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


class TestPerPolicyStream:
    """The sender names a range only when it joins, leaves, commits or
    runs ahead of its policy; the receiver keeps no state and delivers
    every entry of every message: what the stream must keep exact."""

    def test_idle_ticks_read_no_range_target_and_deliver_each_entry(
            self, monkeypatch):
        bed = KVTestBed(regions=REGIONS3)
        ranges = [bed.make_range("us-east1", closed_ts_lag_ms=0.0)
                  for _ in range(7)]
        calls = {"deliver": 0, "target": 0}
        deliver, target = RaftGroup._deliver_closed_ts, Range.closed_target

        def counted_deliver(self, *args):
            calls["deliver"] += 1
            return deliver(self, *args)

        def counted_target(self):
            calls["target"] += 1
            return target(self)

        monkeypatch.setattr(RaftGroup, "_deliver_closed_ts", counted_deliver)
        monkeypatch.setattr(Range, "closed_target", counted_target)
        bed.settle(INTERVAL_MS + 90.0)  # the first tick, delivered
        # Every tick delivers each table entry: one per follower replica.
        assert calls == {"deliver": 7 * 4, "target": 0}
        calls["deliver"] = 0
        seen = [[p.closed_ts.physical for p in followers(r)] for r in ranges]
        for _ in range(3):
            bed.settle(INTERVAL_MS)
            now = [[p.closed_ts.physical for p in followers(r)]
                   for r in ranges]
            for before, after in zip(seen, now):
                assert after == pytest.approx(
                    [t + INTERVAL_MS for t in before])
            seen = now
        assert calls == {"deliver": 3 * 7 * 4, "target": 0}

    def test_receiver_keeps_no_state(self):
        assert ClosedTsReceiver.__slots__ == ("network", "node")

    def test_follower_behind_at_its_first_entry_advances_once_caught_up(
            self):
        bed = KVTestBed(regions=REGIONS3)
        rng = bed.make_range("us-east1", closed_ts_lag_ms=0.0)
        lagging = rng.group.non_voters()[0]
        lag_id = lagging.node.node_id
        bed.settle(INTERVAL_MS + 80.0)  # delivered at the first tick
        network = bed.cluster.network
        send = network.send
        dropping = [True]

        def drop_appends(src, dst, callback, *args, **kwargs):
            if (dropping[0] and dst.node_id == lag_id
                    and getattr(callback, "__name__", "") == "_deliver_append"):
                return
            send(src, dst, callback, *args, **kwargs)

        network.send = drop_appends
        bed.do_write("us-east1", rng, "k", "v")  # commits without it
        stuck = lagging.closed_ts
        bed.settle(3 * INTERVAL_MS)  # entries name the new commit index
        commit = rng.group.commit_index
        assert lagging.applied_index < commit
        assert lagging.closed_ts == stuck  # it lacks the data: no advance
        others = [p for p in followers(rng) if p is not lagging]
        assert all(p.closed_ts.physical > stuck.physical + 2 * INTERVAL_MS
                   for p in others)
        dropping[0] = False
        # Just after a tick: the resync lands before the next one.
        bed.settle(INTERVAL_MS - bed.sim.now % INTERVAL_MS + 1.0)
        rng.group.resync_peer(lag_id)
        bed.settle(INTERVAL_MS - 2.0)
        assert lagging.applied_index == commit
        # Caught up: its entries' closed timestamps, not yet the tick's.
        assert lagging.closed_ts < min(p.closed_ts for p in others)
        bed.settle(80.0)  # the next tick delivers it the slot's target
        assert lagging.closed_ts == max(p.closed_ts for p in others)
        caught = lagging.closed_ts
        bed.settle(INTERVAL_MS)  # ...and every tick after it
        assert lagging.closed_ts.physical == pytest.approx(
            caught.physical + INTERVAL_MS)

    def test_old_stream_stops_advancing_a_range_whose_lease_moved(self):
        bed = KVTestBed(regions=REGIONS3)
        moved = bed.make_range("us-east1", closed_ts_lag_ms=0.0)
        stays = bed.make_range("us-east1", closed_ts_lag_ms=0.0)
        old = moved.leaseholder_node_id
        assert stays.leaseholder_node_id == old
        new, far = (p.node.node_id for p in moved.group.voters()
                    if p.node.node_id != old)
        assert far in stays.group.peers
        ticks = sends_by_tick(bed)
        bed.settle(2 * INTERVAL_MS + 50.0)  # both ride old -> far
        moved.transfer_lease(new)
        bed.settle(2 * INTERVAL_MS)
        for tick, msgs in sorted(ticks.items()):
            by_pair = {(s, d): rids for s, d, rids in msgs}
            if tick < 2 * INTERVAL_MS + 50.0:
                assert by_pair[(old, far)] == sorted(
                    [moved.range_id, stays.range_id])
                continue
            # The old stream still sends (it carries ``stays``) but no
            # longer raises the moved range; its new stream does.
            assert by_pair[(old, far)] == [stays.range_id]
            assert by_pair[(new, far)] == [moved.range_id]

    def test_peer_removed_and_re_added_in_flight_is_not_advanced(self):
        bed = KVTestBed(regions=REGIONS3)
        rng = bed.make_range("us-east1", closed_ts_lag_ms=0.0)
        learner = rng.group.non_voters()[0]
        node = learner.node
        bed.settle(INTERVAL_MS + 80.0)  # delivered at the first tick
        delivered = learner.closed_ts
        assert delivered > TS_ZERO
        bed.settle(20.0)  # the second tick fires; its messages fly
        rng.remove_replica(node)
        rng.add_replica(node, ReplicaType.NON_VOTER)
        rejoined = rng.group.peers[node.node_id]
        assert rejoined is not learner
        copied = rejoined.closed_ts
        bed.settle(80.0)  # past every delivery, before the next tick
        assert learner.closed_ts == delivered  # the orphan stays put
        assert rejoined.closed_ts is copied  # not through the old entry
        bed.settle(INTERVAL_MS)  # the next tick names the new peer
        assert rejoined.closed_ts.physical == pytest.approx(
            copied.physical + INTERVAL_MS)

    def test_fenced_target_advances_no_range_and_counts_each(self):
        bed = KVTestBed(regions=REGIONS3)
        ranges = [bed.make_range("us-east1", closed_ts_lag_ms=0.0)
                  for _ in range(3)]
        (leaseholder,) = {r.leaseholder_node_id for r in ranges}
        monitor = install_clock_monitor(bed.cluster)
        bed.settle(INTERVAL_MS + 80.0)  # delivered at the first tick
        judged = []
        accepts = monitor.accepts_closed_ts

        def counted(node, ts):
            judged.append(node.node_id)
            return accepts(node, ts)

        monitor.accepts_closed_ts = counted
        registry = bed.sim.obs.registry
        #: follower node id -> the ranges its stream from the
        #: leaseholder carries (all on one slot)
        shared = {}
        for rng in ranges:
            for peer in followers(rng):
                shared[peer.node.node_id] = shared.get(
                    peer.node.node_id, 0) + 1
        assert max(shared.values()) == 3

        def rejected():
            return sum(registry.value("clock.closed_ts_rejected", node=n)
                       for n in shared)

        before = {id(p): p.closed_ts for r in ranges for p in followers(r)}
        bed.cluster.clock.jump(leaseholder, 2000.0)
        bed.settle(INTERVAL_MS)  # one tick of out-of-contract targets
        assert all(p.closed_ts == before[id(p)]
                   for r in ranges for p in followers(r))
        # One verdict per follower replica, each refusal counted once.
        assert sorted(judged) == sorted(
            n for n, count in shared.items() for _ in range(count))
        assert len(judged) == rejected() == sum(shared.values()) == 3 * 4

    def test_refused_first_entry_is_retried_and_counted_once_a_tick(self):
        bed = KVTestBed(regions=REGIONS3)
        ranges = [bed.make_range("us-east1", closed_ts_lag_ms=0.0)
                  for _ in range(3)]
        (leaseholder,) = {r.leaseholder_node_id for r in ranges}
        install_clock_monitor(bed.cluster)
        bed.cluster.clock.jump(leaseholder, 2000.0)  # before the first tick
        registry = bed.sim.obs.registry
        pairs = [(r, p) for r in ranges for p in followers(r)]

        def rejected():
            return sum(registry.value("clock.closed_ts_rejected",
                                      node=p.node.node_id)
                       for p in {id(p.node): p for _r, p in pairs}.values())

        for tick in (1, 2):
            bed.settle(INTERVAL_MS + (80.0 if tick == 1 else 0.0))
            # Every range's entry is refused at every follower: delivered
            # again, and counted, once per tick.
            assert rejected() == tick * len(pairs) == tick * 12
            assert all(p.closed_ts == TS_ZERO for _r, p in pairs)

    def test_closed_ts_ahead_of_its_policy_ships_and_never_regresses(self):
        bed = KVTestBed(regions=REGIONS3)
        ahead = bed.make_range("us-east1", closed_ts_lag_ms=0.0)
        idle = bed.make_range("us-east1", closed_ts_lag_ms=0.0)
        bed.settle(INTERVAL_MS + 80.0)
        promise = ahead.closed_emitted.add(3 * INTERVAL_MS + 50.0)
        ahead._note_closed(promise)  # as a proposal closing further ahead
        history = []
        for _ in range(6):
            bed.settle(INTERVAL_MS)
            history.append([p.closed_ts for p in followers(ahead)])
        # The next tick ships the range's own target...
        assert all(ts == promise for ts in history[0])
        # ...nothing regresses while its policy catches up, and then the
        # policy's target carries it on.
        for earlier, later in zip(history, history[1:]):
            assert all(b >= a for a, b in zip(earlier, later))
        assert all(ts > promise for ts in history[-1])
        assert ([p.closed_ts for p in followers(idle)]
                == [max(history[-1])] * len(followers(idle)))

    def test_overtaken_message_delivers_range_by_range_and_never_regresses(
            self, monkeypatch):
        bed = KVTestBed(regions=REGIONS3)
        ranges = [bed.make_range("us-east1", closed_ts_lag_ms=0.0)
                  for _ in range(2)]
        (leaseholder,) = {r.leaseholder_node_id for r in ranges}
        far = next(p.node for p in ranges[0].group.voters()
                   if p.node.node_id != leaseholder)
        watched = [r.group.peers[far.node_id] for r in ranges]
        network = bed.cluster.network
        send = network.send
        landed = []

        def late(src, dst, callback, *args, **kwargs):
            if (bed.sim.now == 3 * INTERVAL_MS and dst is far
                    and getattr(callback, "__func__", None)
                    is ClosedTsReceiver.deliver):
                # The tick at 300 reaches ``far`` after the one at 400.
                kwargs["after_ms"] = INTERVAL_MS + 20.0
                deliver_late = callback

                def callback(*a):
                    landed.append(bed.sim.now)
                    deliver_late(*a)
            send(src, dst, callback, *args, **kwargs)

        network.send = late
        calls = []
        deliver = RaftGroup._deliver_closed_ts

        def counted(self, peer, ts, commit, committed):
            calls.append((bed.sim.now, peer.node.node_id, ts))
            return deliver(self, peer, ts, commit, committed)

        monkeypatch.setattr(RaftGroup, "_deliver_closed_ts", counted)
        history = []
        for _ in range(65):
            bed.settle(10.0)
            history.append([p.closed_ts for p in watched])
        for earlier, later in zip(history, history[1:]):
            assert all(b >= a for a, b in zip(earlier, later))
        # The late message delivered both ranges one by one — the old
        # targets, which raise nothing — and the stream went on.
        (instant,) = landed
        assert instant > 4 * INTERVAL_MS + 20.0
        overtaken = [c for c in calls if c[0] == instant
                     and c[1] == far.node_id]
        assert len(overtaken) == 2
        assert all(ts < p.closed_ts for (_t, _n, ts), p
                   in zip(overtaken, watched))
        assert [p.closed_ts for p in watched] == [
            r.group.leader.closed_ts for r in ranges]
