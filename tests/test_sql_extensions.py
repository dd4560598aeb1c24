"""Tests for EXPLAIN, SELECT FOR UPDATE, the follower-read fallback, and
multi-key bounded-staleness negotiation."""

import pytest

from repro.errors import SchemaError
from repro.kv.distsender import DistSender, ReadRouting
from repro.sim.clock import Timestamp

from .kv_util import KVTestBed
from .sql_util import REGIONS3, connect, movr_engine


class TestExplain:
    def test_explain_select_shows_los(self):
        engine, session = movr_engine()
        lines = session.execute("EXPLAIN SELECT * FROM users WHERE id = 1")
        assert any("locality-optimized-search" in line for line in lines)
        assert any("local=us-east1" in line for line in lines)

    def test_explain_from_remote_gateway(self):
        engine, session = movr_engine()
        west = connect(engine, "us-west1")
        lines = west.execute("EXPLAIN SELECT * FROM users WHERE id = 1")
        assert any("local=us-west1" in line for line in lines)

    def test_explain_select_with_region_is_point_read(self):
        engine, session = movr_engine()
        lines = session.execute(
            "EXPLAIN SELECT * FROM users WHERE id = 1 AND "
            "crdb_region = 'europe-west2'")
        assert any("point-read" in line for line in lines)

    def test_explain_insert_lists_checks(self):
        engine, session = movr_engine()
        lines = session.execute(
            "EXPLAIN INSERT INTO users (id, email, name) "
            "VALUES (9, 'x@y', 'X')")
        checks = [line for line in lines if "uniqueness-check" in line]
        assert len(checks) == 2  # pk + email
        assert all("global check" in line for line in checks)

    def test_explain_insert_uuid_no_checks(self):
        engine, session = movr_engine()
        session.execute(
            "CREATE TABLE tokens (id uuid PRIMARY KEY DEFAULT "
            "gen_random_uuid(), v string) LOCALITY REGIONAL BY ROW")
        lines = session.execute(
            "EXPLAIN INSERT INTO tokens (v) VALUES ('x')")
        assert "uniqueness-checks: none" in lines

    def test_explain_update_only_changed_constraints(self):
        engine, session = movr_engine()
        lines = session.execute(
            "EXPLAIN UPDATE users SET name = 'n' WHERE id = 1")
        assert not any("uniqueness-check" in line for line in lines)
        lines = session.execute(
            "EXPLAIN UPDATE users SET email = 'e@x' WHERE id = 1")
        assert any("uniqueness-check" in line and "email" in line
                   for line in lines)

    @pytest.mark.parametrize("sql, los, plan", [
        ("SELECT * FROM users WHERE id = 1", False,
         "fan-out-read users@primary "
         "partitions=us-east1,us-west1,europe-west2 key=(1,)"),
        ("SELECT * FROM promo_codes WHERE code IN ('a', 'b')", True,
         "multi-point-read promo_codes@primary@default 2 keys"),
        ("SELECT * FROM users WHERE id IN (1, 2)", False,
         "fan-out-read users@primary 2 keys "
         "partitions=us-east1,us-west1,europe-west2"),
    ], ids=["FanoutPointRead", "MultiPointRead", "FanoutMultiRead"])
    def test_explain_names_the_plan(self, sql, los, plan):
        engine, session = movr_engine()
        users = engine.catalog.database("movr").table("users")
        users.locality_optimized_search = los
        assert session.execute(f"EXPLAIN {sql}") == [plan]

    def test_explain_for_update_notes_lock(self):
        engine, session = movr_engine()
        lines = session.execute(
            "EXPLAIN SELECT * FROM users WHERE id = 1 FOR UPDATE")
        assert "lock: exclusive (FOR UPDATE)" in lines

    def test_explain_ddl_rejected(self):
        engine, session = movr_engine()
        with pytest.raises(SchemaError):
            session.execute("EXPLAIN CREATE TABLE t (id int PRIMARY KEY)")


class TestSelectForUpdate:
    def test_lock_blocks_concurrent_writer(self):
        """A FOR UPDATE lock makes a concurrent writer queue behind the
        transaction instead of racing it."""
        engine, session = movr_engine()
        session.execute("INSERT INTO users (id, email, name) "
                        "VALUES (1, 'a@x', 'A')")
        sim = engine.cluster.sim
        order = []

        def rmw(handle):
            rows = yield from handle.execute(
                "SELECT name FROM users WHERE id = 1 FOR UPDATE")
            yield sim.sleep(30.0)  # hold the lock
            yield from handle.execute(
                f"UPDATE users SET name = '{rows[0]['name']}+' "
                f"WHERE id = 1")
            order.append("rmw")

        def blind(handle):
            yield from handle.execute(
                "UPDATE users SET name = 'blind' WHERE id = 1")
            order.append("blind")

        p1 = sim.spawn(session.run_txn_co(rmw))
        session2 = connect(engine, "us-east1", db="movr", index=1)

        def delayed():
            yield sim.sleep(5.0)  # start while the lock is held
            result = yield from session2.run_txn_co(blind)
            return result

        p2 = sim.spawn(delayed())
        sim.run_until_future(p1)
        sim.run_until_future(p2)
        assert order == ["rmw", "blind"]
        rows = session.execute("SELECT name FROM users WHERE id = 1")
        assert rows == [{"name": "blind"}]  # blind applied after rmw

    def test_rmw_with_lock_never_retries(self):
        """FOR UPDATE removes write-too-old retries for contended RMW."""
        engine, session = movr_engine()
        session.execute("INSERT INTO users (id, email, name) "
                        "VALUES (1, 'a@x', 'c0')")
        sim = engine.cluster.sim
        before = engine.coordinator.stats.aborted_retries

        def incr(handle):
            rows = yield from handle.execute(
                "SELECT name FROM users WHERE id = 1 FOR UPDATE")
            n = int(rows[0]["name"][1:])
            yield from handle.execute(
                f"UPDATE users SET name = 'c{n + 1}' WHERE id = 1")

        sessions = [connect(engine, "us-east1", db="movr", index=i)
                    for i in range(3)]
        processes = [sim.spawn(s.run_txn_co(incr)) for s in sessions]
        for process in processes:
            sim.run_until_future(process)
        rows = session.execute("SELECT name FROM users WHERE id = 1")
        assert rows == [{"name": "c3"}]
        # Lock-first RMW serializes via the lock queue, not via retries.
        assert engine.coordinator.stats.aborted_retries == before


    def test_epoch_occ_validation_catches_intervening_writer(self):
        """Under epoch OCC FOR UPDATE takes no lock: the read joins the
        read set, so a writer that commits between the read and the
        commit fails the transaction's validation, and the retry reads
        the writer's value."""
        engine, session = movr_engine(txn_protocol="epoch-occ")
        session.execute("INSERT INTO users (id, email, name) "
                        "VALUES (1, 'a@x', 'A')")
        sim = engine.cluster.sim
        stats = engine.coordinator.stats
        aborts_before = stats.validation_aborts
        seen = []

        def rmw(handle):
            rows = yield from handle.execute(
                "SELECT name FROM users WHERE id = 1 FOR UPDATE")
            seen.append(rows[0]["name"])
            yield sim.sleep(30.0)
            yield from handle.execute(
                f"UPDATE users SET name = '{rows[0]['name']}+' "
                f"WHERE id = 1")

        def blind():
            yield sim.sleep(5.0)  # between rmw's read and its commit
            yield from connect(engine, "us-east1", index=1).run_txn_co(
                lambda handle: handle.execute(
                    "UPDATE users SET name = 'blind' WHERE id = 1"))

        writer = sim.spawn(blind())
        sim.run_until_future(sim.spawn(session.run_txn_co(rmw)))
        sim.run_until_future(writer)
        assert stats.validation_aborts == aborts_before + 1
        assert seen == ["A", "blind"]
        rows = session.execute("SELECT name FROM users WHERE id = 1")
        assert rows == [{"name": "blind+"}]


class TestFollowerReadFallback:
    def test_lagging_follower_falls_back_to_leaseholder(self):
        """A follower whose closed timestamp lags the read timestamp
        redirects the read to the leaseholder at once: the value comes
        back over the WAN."""
        bed = KVTestBed(regions=REGIONS3, jitter_fraction=0.0,
                        side_transport_interval_ms=100.0)
        rng = bed.make_range("us-east1", closed_ts_lag_ms=150.0)
        bed.do_write("us-east1", rng, "k", "v")
        bed.settle(2000.0)
        sim = bed.sim
        ds = DistSender(bed.cluster)
        gateway = bed.gateway("europe-west2")
        # Just above the follower's closed timestamp: even a gap the
        # next side-transport tick would close is not waited out.
        replica = ds.nearest_replica(gateway, rng)
        target = replica.closed_ts.add(10.0).with_synthetic(False)
        start = sim.now
        process = sim.spawn(_read(ds, gateway, rng, "k", target))
        assert sim.run_until_future(process) == "v"
        assert sim.now - start >= 80.0, "the fallback pays the WAN RTT"
        assert sim.obs.registry.value(
            "distsender.follower_read_fallbacks") == 1


def _read(ds, gateway, rng, key, ts):
    result, _ts = yield ds.read(gateway, rng, key, ts,
                                routing=ReadRouting.NEAREST)
    return result.value


class TestMultiKeyBoundedStaleness:
    def test_negotiated_fanout_read(self):
        """A bounded-staleness fan-out (LOS disabled) negotiates one
        timestamp across partitions and reads locally."""
        engine, session = movr_engine(closed_ts_lag_ms=100.0)
        table = engine.catalog.database("movr").table("users")
        table.locality_optimized_search = False  # force fan-out
        session.execute("INSERT INTO users (id, email, name) "
                        "VALUES (1, 'a@x', 'A')")
        sim = engine.cluster.sim
        sim.run(until=sim.now + 4000.0)
        west = connect(engine, "us-west1")
        start = sim.now
        rows = west.execute(
            "SELECT name FROM users AS OF SYSTEM TIME "
            "with_max_staleness('30s') WHERE id = 1")
        assert rows == [{"name": "A"}]
        # Negotiation + reads at nearby replicas: no WAN hop.
        assert sim.now - start < 15.0

    def test_negotiation_future_bound_errors(self):
        bed = KVTestBed(regions=REGIONS3, jitter_fraction=0.0)
        rng_a = bed.make_range("us-east1")
        rng_b = bed.make_range("us-east1")
        bed.settle(1000.0)
        gateway = bed.gateway("us-west1")
        min_ts = Timestamp(bed.sim.now + 60_000.0)

        def main():
            from repro.errors import StaleReadBoundError
            try:
                yield bed.ds.negotiate_bounded_staleness(
                    gateway, [(rng_a, "x"), (rng_b, "y")], min_ts)
            except StaleReadBoundError:
                return "bound"

        process = bed.sim.spawn(main())
        assert bed.sim.run_until_future(process) == "bound"
