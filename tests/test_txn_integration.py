"""End-to-end transaction tests over provisioned ranges.

These validate the latency *and* consistency claims of paper §5–§6:
REGIONAL tables are fast at home and slow remotely; GLOBAL tables serve
strongly-consistent reads everywhere at local latency while writes pay
commit wait; stale reads are local everywhere.
"""

import pytest

from repro.errors import StaleReadBoundError
from repro.kv.distsender import ReadRouting
from repro.sim.clock import Timestamp
from repro.txn import TransactionCoordinator

from .kv_util import KVTestBed, REGIONS3, REGIONS5

PRIMARY = "us-east1"
REMOTE = "europe-west2"


@pytest.fixture
def bed():
    return KVTestBed()


class TestRegionalTables:
    def test_write_read_roundtrip(self, bed):
        rng = bed.make_range(PRIMARY)
        bed.do_write(PRIMARY, rng, "k", "v1")
        value, _ = bed.do_read(PRIMARY, rng, "k")
        assert value == "v1"

    def test_local_write_is_fast(self, bed):
        rng = bed.make_range(PRIMARY)
        _, elapsed = bed.do_write(PRIMARY, rng, "k", "v")
        # Quorum is in-region: a few ms at most.
        assert elapsed < 10.0

    def test_local_read_is_fast(self, bed):
        rng = bed.make_range(PRIMARY)
        bed.do_write(PRIMARY, rng, "k", "v")
        _, elapsed = bed.do_read(PRIMARY, rng, "k")
        assert elapsed < 10.0

    def test_remote_fresh_read_pays_wan_rtt(self, bed):
        rng = bed.make_range(PRIMARY)
        bed.do_write(PRIMARY, rng, "k", "v")
        value, elapsed = bed.do_read(REMOTE, rng, "k")
        assert value == "v"
        # europe-west2 <-> us-east1 RTT is 87 ms.
        assert 87.0 <= elapsed <= 95.0

    def test_remote_write_pays_wan_rtt(self, bed):
        rng = bed.make_range(PRIMARY)
        _, elapsed = bed.do_write(REMOTE, rng, "k", "v")
        assert elapsed >= 87.0

    def test_read_your_deleted_row(self, bed):
        rng = bed.make_range(PRIMARY)
        bed.do_write(PRIMARY, rng, "k", "v")

        def txn_fn(txn):
            yield from txn.delete(rng, "k")
            value = yield from txn.read(rng, "k")
            return value

        value, _ = bed.run_txn(PRIMARY, txn_fn)
        assert value is None

    def test_overwrite_visible(self, bed):
        rng = bed.make_range(PRIMARY)
        bed.do_write(PRIMARY, rng, "k", "v1")
        bed.do_write(PRIMARY, rng, "k", "v2")
        value, _ = bed.do_read(PRIMARY, rng, "k")
        assert value == "v2"

    def test_read_write_txn(self, bed):
        rng = bed.make_range(PRIMARY)
        bed.do_write(PRIMARY, rng, "counter", 10)

        def txn_fn(txn):
            value = yield from txn.read(rng, "counter")
            yield from txn.write(rng, "counter", value + 1)
            return value

        bed.run_txn(PRIMARY, txn_fn)
        value, _ = bed.do_read(PRIMARY, rng, "counter")
        assert value == 11


class TestStaleReads:
    def test_bounded_staleness_remote_is_local(self, bed):
        rng = bed.make_range(PRIMARY, closed_ts_lag_ms=100.0)
        bed.do_write(PRIMARY, rng, "k", "v")
        bed.settle(1000.0)  # let closed timestamps reach followers

        gateway = bed.gateway(REMOTE)
        start = bed.sim.now
        min_ts = Timestamp(bed.sim.now - 5000.0)  # 5 s staleness bound

        def main():
            (result, served_ts) = yield bed.ds.bounded_staleness_read(
                gateway, rng, "k", min_ts)
            return result.value, served_ts

        process = bed.sim.spawn(main())
        value, served_ts = bed.sim.run_until_future(process)
        elapsed = bed.sim.now - start
        assert value == "v"
        assert elapsed < 5.0  # served by the local non-voter
        assert served_ts >= min_ts

    def test_bounded_staleness_nearest_only_error(self, bed):
        rng = bed.make_range(PRIMARY)
        bed.do_write(PRIMARY, rng, "k", "v")
        gateway = bed.gateway(REMOTE)
        # Bound tighter than the lag policy can satisfy locally.
        min_ts = Timestamp(bed.sim.now + 10.0)

        def main():
            try:
                yield bed.ds.bounded_staleness_read(
                    gateway, rng, "k", min_ts, nearest_only=True)
            except StaleReadBoundError:
                return "bound-error"

        process = bed.sim.spawn(main())
        assert bed.sim.run_until_future(process) == "bound-error"

    def test_bounded_staleness_falls_back_to_leaseholder(self, bed):
        rng = bed.make_range(PRIMARY)
        commit_ts, _ = bed.do_write(PRIMARY, rng, "k", "v")
        gateway = bed.gateway(REMOTE)
        # A bound at the commit timestamp is too fresh for followers
        # (the lag policy closes ~3 s behind) but must see the value.
        min_ts = commit_ts.with_synthetic(False)
        start = bed.sim.now

        def main():
            (result, served_ts) = yield bed.ds.bounded_staleness_read(
                gateway, rng, "k", min_ts)
            return result.value

        process = bed.sim.spawn(main())
        value = bed.sim.run_until_future(process)
        assert value == "v"
        assert bed.sim.now - start >= 87.0  # redirected across the WAN

    def test_exact_staleness_read_local(self, bed):
        rng = bed.make_range(PRIMARY, closed_ts_lag_ms=100.0)
        bed.do_write(PRIMARY, rng, "k", "v")
        bed.settle(4000.0)
        gateway = bed.gateway(REMOTE)
        # Well after the write, well below the followers' closed ts.
        ts = Timestamp(bed.sim.now - 2000.0)
        start = bed.sim.now

        def main():
            result = yield bed.ds.exact_staleness_read(gateway, rng, "k", ts)
            return result.value

        process = bed.sim.spawn(main())
        value = bed.sim.run_until_future(process)
        assert value == "v"
        assert bed.sim.now - start < 5.0

    def test_stale_read_does_not_see_recent_write(self, bed):
        rng = bed.make_range(PRIMARY, closed_ts_lag_ms=100.0)
        bed.do_write(PRIMARY, rng, "k", "old")
        bed.settle(3000.0)
        checkpoint = Timestamp(bed.sim.now)
        bed.do_write(PRIMARY, rng, "k", "new")
        gateway = bed.gateway(REMOTE)

        def main():
            result = yield bed.ds.exact_staleness_read(
                gateway, rng, "k", checkpoint)
            return result.value

        process = bed.sim.spawn(main())
        assert bed.sim.run_until_future(process) == "old"


class TestGlobalTables:
    def test_global_write_pays_commit_wait(self, bed):
        rng = bed.make_range(PRIMARY, global_reads=True)
        _, elapsed = bed.do_write(PRIMARY, rng, "k", "v")
        # Commit wait ~ lead time = L_raft + L_replicate + max_offset.
        # Furthest follower from us-east1 is australia (99 ms one-way),
        # max_offset 250 ms -> at least ~350 ms.
        assert elapsed >= 300.0
        assert bed.coord.stats.commit_waits >= 1

    def test_global_read_fast_everywhere(self, bed):
        rng = bed.make_range(PRIMARY, global_reads=True)
        bed.do_write(PRIMARY, rng, "k", "v")
        bed.settle(2000.0)
        for region in REGIONS5:
            value, elapsed = bed.do_read(region, rng, "k",
                                         routing=ReadRouting.NEAREST)
            assert value == "v", region
            assert elapsed < 10.0, region

    def test_global_read_linearizes_after_write_ack(self, bed):
        """Once the writer is acked, every region must see the value
        (the core §6.2 guarantee)."""
        rng = bed.make_range(PRIMARY, global_reads=True)
        bed.do_write(PRIMARY, rng, "k", "fresh")
        # No settle: read immediately after the ack.
        for region in REGIONS5:
            value, _ = bed.do_read(region, rng, "k",
                                   routing=ReadRouting.NEAREST)
            assert value == "fresh", region

    def test_reader_near_write_commit_waits_bounded(self, bed):
        """A reader observing a just-written future value commit waits,
        but no longer than max_clock_offset (§6.2.1)."""
        rng = bed.make_range(PRIMARY, global_reads=True)
        bed.do_write(PRIMARY, rng, "warm", "x")
        bed.settle(2000.0)

        # Write and read concurrently from different regions.
        sim = bed.sim
        gw_write = bed.gateway(PRIMARY)
        gw_read = bed.gateway(REMOTE)

        def writer(txn):
            yield from txn.write(rng, "contended", "new")
            return None

        def reader(txn):
            value = yield from txn.read(rng, "contended",
                                        routing=ReadRouting.NEAREST)
            return value

        def write_main():
            yield from bed.coord.run(gw_write, writer)

        read_latency = {}

        def read_main():
            # Start the read while the writer is still commit-waiting
            # (lead time ~580 ms) but close enough that the future value
            # falls inside the reader's uncertainty interval — Fig 2
            # case (4).
            yield sim.sleep(500.0)
            start = sim.now
            value, _ = yield from bed.coord.run(gw_read, reader)
            read_latency["elapsed"] = sim.now - start
            return value

        wp = sim.spawn(write_main())
        process = sim.spawn(read_main())
        value = sim.run_until_future(process)
        sim.run_until_future(wp)
        assert value == "new"
        # The read either waited for the writer's intent and/or commit
        # waited; in all cases the total must be far below a WAN RTT
        # blow-up and bounded by ~max_offset + small slack.
        assert read_latency["elapsed"] <= 250.0 + 100.0

    def test_global_read_does_not_block_on_unrelated_keys(self, bed):
        rng = bed.make_range(PRIMARY, global_reads=True)
        bed.do_write(PRIMARY, rng, "a", "1")
        bed.settle(2000.0)
        # Concurrent write to "b" must not slow a read of "a".
        sim = bed.sim

        def writer(txn):
            yield from txn.write(rng, "b", "2")

        wp = sim.spawn(bed.coord.run(bed.gateway(PRIMARY), writer))
        value, elapsed = bed.do_read(REMOTE, rng, "a",
                                     routing=ReadRouting.NEAREST)
        assert value == "1"
        assert elapsed < 10.0
        sim.run_until_future(wp)


class TestConflicts:
    def test_write_write_conflict_serialized(self, bed):
        rng = bed.make_range(PRIMARY)
        bed.do_write(PRIMARY, rng, "k", 0)
        sim = bed.sim
        gateway = bed.gateway(PRIMARY)

        def incr(txn):
            value = yield from txn.read(rng, "k")
            yield sim.sleep(5.0)  # widen the race window
            yield from txn.write(rng, "k", value + 1)

        p1 = sim.spawn(bed.coord.run(gateway, incr))
        p2 = sim.spawn(bed.coord.run(gateway, incr))
        sim.run_until_future(p1)
        sim.run_until_future(p2)
        value, _ = bed.do_read(PRIMARY, rng, "k")
        assert value == 2  # serializable: no lost update

    def test_many_concurrent_increments(self, bed):
        rng = bed.make_range(PRIMARY)
        bed.do_write(PRIMARY, rng, "k", 0)
        sim = bed.sim

        def incr(txn):
            value = yield from txn.read(rng, "k")
            yield from txn.write(rng, "k", value + 1)

        processes = [sim.spawn(bed.coord.run(bed.gateway(PRIMARY, i), incr))
                     for i in range(6)]
        for process in processes:
            sim.run_until_future(process)
        value, _ = bed.do_read(PRIMARY, rng, "k")
        assert value == 6

    def test_multi_range_transaction_atomic(self, bed):
        rng_a = bed.make_range(PRIMARY)
        rng_b = bed.make_range(PRIMARY)

        def txn_fn(txn):
            yield from txn.write(rng_a, "x", "vx")
            yield from txn.write(rng_b, "y", "vy")

        bed.run_txn(PRIMARY, txn_fn)
        assert bed.do_read(PRIMARY, rng_a, "x")[0] == "vx"
        assert bed.do_read(PRIMARY, rng_b, "y")[0] == "vy"


class TestAblation:
    def test_contending_writers_commit_wait_concurrently(self):
        """Paper §6.2/§7.3: CRDB releases locks concurrently with commit
        wait, so contending writers overlap their waits; the
        Spanner-style ablation (hold locks through the wait) serializes
        them, and the slowest writer's latency grows with the queue."""
        slowest = {}
        for style in ("crdb", "spanner"):
            bed = KVTestBed(spanner_style_commit_wait=(style == "spanner"))
            rng = bed.make_range(PRIMARY, global_reads=True)
            sim = bed.sim

            def writer(txn):
                yield from txn.write(rng, "k", "v")

            processes = [
                sim.spawn(bed.coord.run(bed.gateway(PRIMARY, i), writer))
                for i in range(3)
            ]
            for process in processes:
                sim.run_until_future(process)
            slowest[style] = sim.now
        assert slowest["spanner"] > slowest["crdb"] * 2.0


class TestTxnStats:
    def test_commit_counts(self, bed):
        rng = bed.make_range(PRIMARY)
        bed.do_write(PRIMARY, rng, "a", 1)
        bed.do_read(PRIMARY, rng, "a")
        assert bed.coord.stats.committed == 2
        assert bed.coord.stats.begun >= 2


class TestTwoCoordinatorsOneCluster:
    def test_neither_loses_the_other_acknowledged_write(self):
        """The txn registry, lock holders and replicated commit records
        are per cluster, so transaction ids must be too: a second
        coordinator counting from 1 had its one-phase write answered
        from the first coordinator's commit record for txn 1 and lost."""
        bed = KVTestBed(regions=REGIONS3)
        rng = bed.make_range(PRIMARY)
        bed.settle()
        other = TransactionCoordinator(bed.cluster)
        begun = []

        def write(key):
            def txn_fn(txn):
                begun.append(txn.txn_id)
                yield from txn.write(rng, key, key.upper(), commit=True)
            return txn_fn

        bed.run_txn(PRIMARY, write("a"))
        bed.sim.run_until_future(bed.sim.spawn(
            other.run(bed.gateway(PRIMARY), write("b"))))
        assert bed.do_read(PRIMARY, rng, "a")[0] == "A"
        assert bed.do_read(PRIMARY, rng, "b")[0] == "B"
        assert len(set(begun)) == 2
