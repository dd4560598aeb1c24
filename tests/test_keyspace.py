"""Elastic keyspace tests: encoded-key ordering, the descriptor
lifecycle (born / split / merge), the DistSender span cache with its
RangeKeyMismatch invalidation protocol, and the rebalance queue's
size/load splits, cold merges, and follow-the-workload lease moves."""

import pytest

from repro.cluster import StoreLiveness, standard_cluster
from repro.kv.keyspace import (
    MIN_KEY,
    RangeLoad,
    TableSpan,
    encode_key,
)
from repro.placement import (
    Allocator,
    RebalanceQueue,
    SurvivalGoal,
    ZoneConfig,
    provision_range,
    zone_config_for_home,
)
from repro.txn import TransactionCoordinator

from .kv_util import REGIONS3, KVTestBed


class TestEncodeKey:
    def test_total_order_across_types(self):
        """Heterogeneous keys must compare without TypeError, in a
        stable type-rank order: None < numbers < bytes < str < tuple."""
        keys = [("u", 7), "acct0", b"\x01", 3, 2.5, None]
        encoded = sorted(encode_key(k) for k in keys)
        assert encoded == [encode_key(k) for k in
                           [None, 2.5, 3, b"\x01", "acct0", ("u", 7)]]

    def test_min_key_below_everything(self):
        for key in [None, -10, "", "a", b"", ()]:
            assert MIN_KEY < encode_key(key)

    def test_string_order_preserved(self):
        assert encode_key("u001") < encode_key("u002") < encode_key("u010")


class TestRangeLoad:
    def test_qps_reports_previous_completed_window(self):
        load = RangeLoad()
        for i in range(10):
            load.record(100.0 * i, key=f"k{i % 3}", region="us-east1")
        # Rolling into the next window exposes the completed one.
        load.record(1100.0, key="k0", region="us-east1")
        assert load.qps(1100.0) == pytest.approx(10.0)

    def test_split_key_is_load_weighted_median(self):
        load = RangeLoad()
        now = 0.0
        for _ in range(8):
            load.record(now, key="a", region="r")
        for _ in range(2):
            load.record(now, key="b", region="r")
        load.record(now, key="c", region="r")
        load.record(1000.0, key="a", region="r")  # close the window
        # Half the load sits on "a", so the split lands right after it.
        assert load.split_key(1000.0) == "b"

    def test_split_key_needs_two_distinct_keys(self):
        load = RangeLoad()
        for _ in range(5):
            load.record(0.0, key="only", region="r")
        load.record(1000.0, key="only", region="r")
        assert load.split_key(1000.0) is None

    def test_dominant_region(self):
        load = RangeLoad()
        for i in range(9):
            load.record(0.0, key=f"k{i}",
                        region="eu" if i < 6 else "us")
        load.record(1000.0, key="k0", region="eu")
        # Previous window (6 eu / 3 us) merged with the current one
        # (1 eu): 7 of 10 requests originate in Europe.
        region, share = load.dominant_region(1000.0)
        assert region == "eu"
        assert share == pytest.approx(0.7)


class _ElasticBed(KVTestBed):
    """KVTestBed plus one REGION-survivable range and its born span."""

    def __init__(self, **kwargs):
        super().__init__(regions=REGIONS3, goal=SurvivalGoal.REGION,
                         **kwargs)
        self.range = self.make_range("us-east1")
        self.keyspace = self.cluster.keyspace
        self.span = self.range.span

    def seed(self, keys):
        ts = self.range.leaseholder_node.clock.now()
        self.span.bulk_ingest([(key, f"v:{key}") for key in keys], ts)
        self.sim.run(until=self.sim.now + 200.0)


class TestDescriptorLifecycle:
    def test_born_span_is_registered_and_covers_everything(self):
        bed = _ElasticBed()
        assert bed.keyspace.spans[bed.span.span_id] is bed.span
        assert bed.span.span_id == bed.range.range_id
        assert bed.span.anchor is bed.range is bed.range.anchor
        [descriptor] = bed.span.descriptors
        assert descriptor is bed.range.descriptor
        assert descriptor.start_key == MIN_KEY
        assert descriptor.end_key is None
        assert descriptor.generation == 1
        assert descriptor.contains_key("anything")

    def test_split_partitions_span_and_bumps_generations(self):
        bed = _ElasticBed()
        bed.seed(["a", "b", "c", "d"])
        parent = bed.span.descriptors[0]
        child = bed.keyspace.split(parent, "c", trigger="test")
        assert [d.span_repr() for d in bed.span.descriptors] == [
            parent.span_repr(), child.span_repr()]
        assert parent.end_key == encode_key("c")
        assert child.start_key == encode_key("c")
        assert child.end_key is None
        assert parent.generation == child.generation == 2
        assert bed.keyspace.splits == 1
        # Data moved with the boundary: each side's leaseholder store
        # holds exactly its own keys.
        parent_keys = sorted(parent.rng.leaseholder_replica.store.keys())
        child_keys = sorted(child.rng.leaseholder_replica.store.keys())
        assert parent_keys == ["a", "b"]
        assert child_keys == ["c", "d"]

    def test_split_rejects_out_of_bounds_and_boundary_keys(self):
        bed = _ElasticBed()
        bed.seed(["a", "b", "c", "d"])
        parent = bed.span.descriptors[0]
        child = bed.keyspace.split(parent, "c", trigger="test")
        with pytest.raises(ValueError):
            bed.keyspace.split(parent, "d", trigger="test")  # not owned
        with pytest.raises(ValueError):
            bed.keyspace.split(child, "c", trigger="test")  # at start

    def test_reads_and_writes_route_across_split(self):
        bed = _ElasticBed()
        bed.seed(["a", "b", "c", "d"])
        bed.keyspace.split(bed.span.descriptors[0], "c", trigger="test")
        for key in ["a", "b", "c", "d"]:
            value, _ = bed.do_read("europe-west2", bed.span, key)
            assert value == f"v:{key}"
        bed.do_write("us-east1", bed.span, "b", "new-b")
        bed.do_write("us-east1", bed.span, "d", "new-d")
        assert bed.do_read("us-east1", bed.span, "b")[0] == "new-b"
        assert bed.do_read("us-east1", bed.span, "d")[0] == "new-d"

    def test_merge_restores_single_range(self):
        bed = _ElasticBed()
        bed.seed(["a", "b", "c", "d"])
        left = bed.span.descriptors[0]
        right_rng = bed.keyspace.split(left, "c", trigger="test").rng
        bed.do_write("us-east1", bed.span, "d", "post-split")
        left, right = bed.span.descriptors
        assert bed.keyspace.can_merge(left, right)
        bed.keyspace.merge(left, right)
        assert len(bed.span.descriptors) == 1
        assert left.start_key == MIN_KEY and left.end_key is None
        assert bed.keyspace.merges == 1
        # The right side is an emptied husk: it owns nothing but its
        # Raft group survives so anchored txn records stay resolvable.
        assert right.start_key == right.end_key
        assert bed.range.span.ranges() == [left.rng]
        merged = sorted(left.rng.leaseholder_replica.store.keys())
        assert merged == ["a", "b", "c", "d"]
        assert bed.do_read("europe-west2", bed.span, "d")[0] == "post-split"
        assert right_rng.span.descriptor_for_key("d").rng is left.rng

    def test_can_merge_rejects_non_adjacent(self):
        bed = _ElasticBed()
        bed.seed(["a", "b", "c", "d"])
        first = bed.span.descriptors[0]
        bed.keyspace.split(first, "b", trigger="test")
        bed.keyspace.split(bed.span.descriptors[1], "c", trigger="test")
        a, b, c = bed.span.descriptors
        assert not bed.keyspace.can_merge(a, c)
        assert bed.keyspace.can_merge(b, c)

    def test_never_split_range_is_a_one_range_span(self):
        bed = KVTestBed(regions=REGIONS3, goal=SurvivalGoal.REGION)
        rng = bed.make_range("us-east1")
        assert rng.span.ranges() == [rng]


class TestDistSenderSpanCache:
    def test_miss_then_hits_then_invalidation_on_split(self):
        bed = _ElasticBed()
        bed.seed(["a", "b", "c", "d"])
        assert bed.ds.range_cache_misses == 0
        bed.do_read("us-east1", bed.span, "a")
        first_misses = bed.ds.range_cache_misses
        assert first_misses >= 1
        hits_before = bed.ds.range_cache_hits
        bed.do_read("us-east1", bed.span, "b")
        assert bed.ds.range_cache_hits > hits_before
        assert bed.ds.range_cache_misses == first_misses
        # A split bumps the span generation and notifies subscribers:
        # the snapshot is dropped and the next resolve re-misses.
        bed.keyspace.split(bed.span.descriptors[0], "c", trigger="test")
        assert bed.ds.range_cache_invalidations >= 1
        bed.do_read("us-east1", bed.span, "d")
        assert bed.ds.range_cache_misses > first_misses

    def test_stale_cache_bounce_reroutes_to_new_owner(self):
        """A client that cached the pre-split descriptor map must be
        bounced by RangeKeyMismatch and land on the new owner."""
        bed = _ElasticBed()
        bed.seed(["a", "b", "c", "d"])
        bed.do_read("us-east1", bed.span, "d")  # warm the cache
        parent = bed.span.descriptors[0]
        child = bed.keyspace.split(parent, "c", trigger="test")
        # Re-prime a deliberately stale snapshot: resolve subscribes
        # fresh, then we forge the pre-split single-descriptor view.
        bed.do_read("us-east1", bed.span, "a")
        bed.ds._span_cache[bed.span.span_id] = ([MIN_KEY], [parent])
        value, _ = bed.do_read("us-east1", bed.span, "d")
        assert value == "v:d"
        assert bed.ds.resolve(bed.span, "d") is child.rng


def _flat_config(home):
    # No lease preference: follow-the-workload may move the lease.
    return ZoneConfig(num_replicas=3, num_voters=3, constraints={home: 1})


class _QueueBed:
    """A cluster with one range's span managed by a RebalanceQueue."""

    def __init__(self, seed=0, **queue_kwargs):
        self.cluster = standard_cluster(REGIONS3, seed=seed)
        self.sim = self.cluster.sim
        self.coord = TransactionCoordinator(self.cluster)
        self.config = _flat_config("us-east1")
        self.range = provision_range(
            self.cluster, self.config, name="kv",
            side_transport_interval_ms=100.0,
            proposal_timeout_ms=1000.0, retransmit_interval_ms=150.0)
        self.span = self.range.span
        self.liveness = StoreLiveness(self.cluster)
        kwargs = dict(split_max_keys=8, split_qps=10.0, merge_qps=1.0,
                      merge_patience=2, lease_cooldown_ms=500.0)
        kwargs.update(queue_kwargs)
        self.queue = RebalanceQueue(self.cluster, self.liveness,
                                    interval_ms=200.0, **kwargs)
        self.queue.manage_span(self.span, self.config)
        self.queue.start()

    def seed(self, count):
        ts = self.range.leaseholder_node.clock.now()
        self.span.bulk_ingest(
            [(f"k{i:03d}", 0) for i in range(count)], ts)

    def drive(self, region, keys, duration_ms, think_ms=5.0):
        """A closed-loop client hammering ``keys`` from ``region``."""
        gateway = self.cluster.gateway_for_region(region)
        end = self.sim.now + duration_ms

        def client():
            index = 0
            while self.sim.now < end:
                key = keys[index % len(keys)]
                index += 1

                def txn_fn(txn, key=key):
                    value = yield from txn.read(self.span, key)
                    yield from txn.write(self.span, key, (value or 0) + 1)

                try:
                    yield from self.coord.run(gateway, txn_fn)
                except Exception:
                    pass
                yield self.sim.sleep(think_ms)

        return self.sim.spawn(client())


class TestRebalanceQueue:
    def test_size_split_to_bounded_ranges(self):
        bed = _QueueBed()
        bed.seed(20)  # 20 keys > 8 forces recursive size splits
        bed.sim.run(until=2000.0)
        assert bed.cluster.keyspace.splits >= 2
        assert len(bed.span.descriptors) >= 3  # ceil(20 / 8)
        for descriptor in bed.span.descriptors:
            keys = descriptor.rng.leaseholder_replica.store.keys()
            assert len(list(keys)) <= 8
        # Everything is cold, but merging any neighbor pair would cross
        # the size threshold and immediately re-split — the merge
        # hysteresis holds the range count at the floor.
        count = len(bed.span.descriptors)
        bed.sim.run(until=6000.0)
        assert len(bed.span.descriptors) == count

    def test_cold_merge_after_drain(self):
        bed = _QueueBed()
        bed.seed(6)  # under the size threshold: no size splits
        bed.sim.run(until=400.0)
        bed.cluster.keyspace.split(bed.span.descriptors[0], "k003",
                                   trigger="test")
        assert len(bed.span.descriptors) == 2
        # Both sides are cold and small; the queue merges them back.
        bed.sim.run(until=4000.0)
        assert len(bed.span.descriptors) == 1
        assert bed.cluster.keyspace.merges == 1

    def test_load_split_on_hot_keys(self):
        bed = _QueueBed(split_max_keys=64, split_qps=5.0)
        bed.seed(4)  # too few keys for a size split
        client = bed.drive("us-east1", ["k000", "k001", "k002", "k003"],
                           3000.0, think_ms=2.0)
        bed.sim.run_until_future(client)
        assert bed.cluster.keyspace.splits >= 1
        assert len(bed.span.descriptors) >= 2

    def test_follow_the_workload_moves_lease(self):
        bed = _QueueBed(split_max_keys=64, split_qps=1000.0)
        bed.seed(4)
        assert bed.range.leaseholder_node.locality.region == "us-east1"
        client = bed.drive("europe-west2",
                           ["k000", "k001", "k002", "k003"], 4000.0,
                           think_ms=2.0)
        bed.sim.run_until_future(client)
        [descriptor] = bed.span.descriptors
        lease_region = descriptor.rng.leaseholder_node.locality.region
        assert lease_region == "europe-west2"

    def test_lease_preferences_disable_follow_the_workload(self):
        config = zone_config_for_home(
            "us-east1", REGIONS3, SurvivalGoal.REGION)
        bed = _QueueBed(split_max_keys=64, split_qps=1000.0)
        bed.queue._spans[bed.span.span_id] = (bed.span, config)
        client = bed.drive("europe-west2",
                           ["k000", "k001", "k002", "k003"], 3000.0,
                           think_ms=2.0)
        bed.sim.run_until_future(client)
        [descriptor] = bed.span.descriptors
        lease_region = descriptor.rng.leaseholder_node.locality.region
        assert lease_region == "us-east1"


class TestLoadAwareAllocator:
    def test_load_fn_breaks_replica_count_ties(self):
        cluster = standard_cluster(REGIONS3, seed=0)
        hot = cluster.nodes_in_region("us-east1")[0].node_id
        allocator = Allocator(
            cluster, load_fn=lambda n: 100.0 if n.node_id == hot else 0.0)
        config = ZoneConfig(num_replicas=3, num_voters=3)
        placement = allocator.place(config)
        assert hot not in [n.node_id for n in placement.voters]


class TestEncodeCacheEviction:
    def test_full_cache_starts_over_instead_of_freezing(self, monkeypatch):
        """A process that has routed many distinct keys (a farm worker a
        few cases in) must keep interning the keys it routes *now*."""
        from repro.kv import keyspace
        monkeypatch.setattr(keyspace, "_ENCODE_CACHE_MAX", 8)
        cache = keyspace._ENCODE_CACHE
        cache.clear()
        for i in range(8):
            encode_key(f"fill{i}")
        assert len(cache) == 8
        fresh = encode_key("fresh")
        assert encode_key("fresh") is fresh  # interned, not re-encoded
        assert "fresh" in cache and len(cache) <= 8
        # Same dict object throughout: bench/run.py clears it by name.
        assert keyspace._ENCODE_CACHE is cache


class TestTokenContract:
    """A Range token means its span; a key-less resolve means the
    token's own (a span's first) range."""

    def test_pre_split_range_token_reaches_moved_keys(self):
        bed = _ElasticBed()
        bed.seed(["a", "b", "c", "d"])
        held = bed.range  # what a client resolved before the split
        assert bed.do_read("us-east1", held, "d")[0] == "v:d"
        child = bed.keyspace.split(held.descriptor, "c", trigger="test")
        assert not held.descriptor.contains_key("d")
        assert bed.do_read("europe-west2", held, "d")[0] == "v:d"
        bed.do_write("us-east1", held, "d", "moved")
        assert bed.do_read("us-east1", held, "d")[0] == "moved"
        store = child.rng.leaseholder_replica.store
        assert "d" in set(store.keys())
        # The child and the span are the same token too.
        assert bed.do_read("us-east1", child.rng, "a")[0] == "v:a"
        assert bed.ds.resolve(held, "d") is bed.ds.resolve(bed.span, "d")

    def test_keyless_resolve_is_the_tokens_own_range(self):
        bed = _ElasticBed()
        bed.seed(["a", "b", "c", "d"])
        child = bed.keyspace.split(bed.range.descriptor, "c", trigger="test")
        assert bed.ds.resolve(bed.range) is bed.range
        assert bed.ds.resolve(child.rng) is child.rng  # txn-record anchor
        assert bed.ds.resolve(bed.span) is bed.range

    def test_bulk_ingest_through_a_range_token_routes_by_key(self):
        bed = _ElasticBed()
        bed.seed(["a", "b"])
        child = bed.keyspace.split(bed.range.descriptor, "c", trigger="test")
        ts = bed.range.leaseholder_node.clock.now()
        bed.range.bulk_ingest([("b2", 1), ("d", 2)], ts)
        assert set(child.rng.leaseholder_replica.store.keys()) == {"d"}
        assert bed.keyspace.violations() == []

    def test_same_named_ranges_are_different_spans(self):
        """The span cache and the registry are keyed by span identity:
        two databases' same-named tables must not share a route."""
        bed = KVTestBed(regions=REGIONS3, goal=SurvivalGoal.REGION)
        config = zone_config_for_home("us-east1", REGIONS3,
                                      SurvivalGoal.REGION)
        first = provision_range(bed.cluster, config, name="t@primary")
        second = provision_range(bed.cluster, config, name="t@primary")
        assert first.span.name == second.span.name
        bed.do_write("us-east1", first, "k", "first")
        assert bed.do_read("us-east1", second, "k")[0] is None
        bed.do_write("us-east1", second, "k", "second")
        assert bed.do_read("us-east1", first, "k")[0] == "first"
        spans = bed.cluster.keyspace.spans
        assert spans[first.range_id] is first.span
        assert spans[second.range_id] is second.span


class TestStructuralAudit:
    """Every live Range has a descriptor; every span tiles [/Min, /Max);
    every replica store holds only in-bounds keys."""

    @staticmethod
    def _audit(cluster, ranges):
        keyspace = cluster.keyspace
        assert keyspace.violations() == []
        for rng in ranges:
            descriptor = rng.descriptor
            assert descriptor.rng is rng
            assert descriptor in rng.span.descriptors
            assert keyspace.spans[rng.span.span_id] is rng.span

    def test_after_ddl_provision_split_and_merge(self):
        from repro.harness.testbed import Testbed
        from .sql_util import movr_engine
        engine, session = movr_engine()
        session.execute("INSERT INTO users (id, email, name) VALUES "
                        "(1, 'a@x', 'a'), (2, 'b@x', 'b'), (3, 'c@x', 'c')")
        session.execute("CREATE INDEX users_name ON users (name)")
        session.execute("ALTER TABLE promo_codes SET LOCALITY "
                        "REGIONAL BY TABLE")
        database = engine.catalog.database("movr")
        ranges = [rng for table in database.tables.values()
                  for rng in table.all_ranges()]
        assert len(ranges) >= 8
        self._audit(engine.cluster, ranges)

        bed = Testbed(0)
        rng = bed.provision("audit", bed.zone_config())
        rng.bulk_ingest([(f"k{i}", i) for i in range(6)],
                        rng.leaseholder_node.clock.now())
        keyspace = bed.cluster.keyspace
        child = keyspace.split(rng.descriptor, "k3")
        self._audit(bed.cluster, [rng, child.rng])
        assert [d.span_repr() for d in rng.span.descriptors] == [
            rng.descriptor.span_repr(), child.span_repr()]
        keyspace.merge(rng.descriptor, child)
        self._audit(bed.cluster, [rng])
        assert rng.descriptor.span_repr() == "[/Min, /Max)"

    def test_dropped_tables_leave_the_registry(self):
        from .sql_util import movr_engine
        engine, session = movr_engine()
        spans = engine.cluster.keyspace.spans
        before = set(spans)
        session.execute("CREATE TABLE tmp (id int PRIMARY KEY)")
        assert set(spans) > before
        session.execute("DROP TABLE tmp")
        assert set(spans) == before

    def test_audit_convicts_a_stray_key_and_a_gap(self):
        bed = _ElasticBed()
        bed.seed(["a", "b", "c", "d"])
        child = bed.keyspace.split(bed.range.descriptor, "c", trigger="test")
        ts = bed.range.leaseholder_node.clock.now()
        for replica in bed.range.replicas.values():  # no routing
            replica.store.put_committed("z", ts, 0)
        assert any("holds keys outside" in line and "'z'" in line
                   for line in bed.keyspace.violations())
        child.start_key = encode_key("d")
        assert any("gap or overlap" in line
                   for line in bed.keyspace.violations())

    def test_every_chaos_scenario_runs_the_audit(self, monkeypatch):
        from repro.kv.keyspace import Keyspace
        from repro.verify import run_verify
        monkeypatch.setattr(Keyspace, "violations",
                            lambda self: ["keyspace: planted"])
        result = run_verify("crash-restart", seed=0, clients_per_region=1,
                            ops_per_client=2, stale_ops=1)
        assert result.report.ok
        assert result.audit == ["keyspace: planted"]
        assert not result.ok
        assert result.to_json()["audit"] == ["keyspace: planted"]


class TestSqlOverASplit:
    """A table whose partition is split under it keeps answering
    through the catalog's provision-time token."""

    def test_select_update_and_scan_follow_the_split(self):
        from .sql_util import make_engine
        engine = make_engine()
        session = engine.connect("us-east1")
        session.execute('CREATE DATABASE shop PRIMARY REGION "us-east1" '
                        'REGIONS "us-west1", "europe-west2"')
        session.execute("CREATE TABLE items (id int PRIMARY KEY, qty int)")
        for i in range(1, 9):
            session.execute(f"INSERT INTO items (id, qty) VALUES ({i}, {i})")
        table = engine.catalog.database("shop").table("items")
        token = table.primary_index.partitions[""]
        keyspace = engine.cluster.keyspace

        # Split mid-transaction: the open txn wrote on the left, then
        # the boundary moves, then it touches the (new) right side.
        session.execute("BEGIN")
        session.execute("UPDATE items SET qty = 20 WHERE id = 2")
        child = keyspace.split(token.descriptor, (5,), trigger="test")
        session.execute("UPDATE items SET qty = 70 WHERE id = 7")
        session.execute("COMMIT")

        assert table.primary_index.partitions[""] is token
        assert table.all_ranges() == [token, child.rng]
        assert sorted(child.rng.leaseholder_replica.store.keys()) == [
            (5,), (6,), (7,), (8,)]
        assert session.execute("SELECT qty FROM items WHERE id = 7") == [
            {"qty": 70}]
        assert session.execute("SELECT qty FROM items WHERE id = 2") == [
            {"qty": 20}]
        session.execute("UPDATE items SET qty = 9 WHERE id = 8")
        session.execute("INSERT INTO items (id, qty) VALUES (9, 9)")
        rows = session.execute("SELECT id, qty FROM items")
        assert sorted((r["id"], r["qty"]) for r in rows) == [
            (1, 1), (2, 20), (3, 3), (4, 4), (5, 5), (6, 6), (7, 70),
            (8, 9), (9, 9)]
        remote = engine.connect("europe-west2")
        remote.execute("USE shop")
        assert remote.execute("SELECT qty FROM items WHERE id = 9") == [
            {"qty": 9}]
        shown = session.execute("SHOW RANGES FROM TABLE items")
        assert [(r["span"], r["generation"]) for r in shown] == [
            (token.descriptor.span_repr(), 2), (child.span_repr(), 2)]
        assert keyspace.violations() == []
        # ...and back: the merge leaves one full-span range.
        engine.cluster.sim.run(until=engine.cluster.sim.now + 500.0)
        keyspace.merge(token.descriptor, child)
        rows = session.execute("SELECT id FROM items")
        assert sorted(r["id"] for r in rows) == list(range(1, 10))
        assert keyspace.violations() == []
