"""Availability under network partitions (§5.3.2, §6.2.2).

The paper: bounded-staleness reads "can improve read availability";
for GLOBAL tables, "Partitioned replicas may still serve stale reads"
while strongly-consistent reads need the leaseholder connection.
"""

import pytest

from repro.errors import StaleReadBoundError, TransactionRetryError
from repro.sim.clock import Timestamp
from repro.sim.network import NetworkUnavailableError

from .kv_util import KVTestBed, REGIONS3, isolate_region
from .sql_util import connect, movr_engine


class TestPartitionedRegionStaleReads:
    def _partitioned_setup(self):
        """Data written and replicated; then the home region is cut off
        from the rest of the world."""
        engine, session = movr_engine(closed_ts_lag_ms=100.0)
        session.execute("INSERT INTO users (id, email, name) "
                        "VALUES (1, 'a@x', 'A')")
        sim = engine.cluster.sim
        sim.run(until=sim.now + 6000.0)
        isolate_region(engine.cluster, "us-east1")
        return engine, sim

    def test_fresh_read_from_partitioned_minority_fails(self):
        engine, sim = self._partitioned_setup()
        west = connect(engine, "us-west1")
        with pytest.raises((TransactionRetryError,
                            NetworkUnavailableError)):
            west.execute("SELECT name FROM users WHERE id = 1 AND "
                         "crdb_region = 'us-east1'")

    def test_stale_read_still_served_locally(self):
        engine, sim = self._partitioned_setup()
        west = connect(engine, "us-west1")
        start = sim.now
        rows = west.execute(
            "SELECT name FROM users AS OF SYSTEM TIME '-5s' "
            "WHERE id = 1 AND crdb_region = 'us-east1'")
        assert rows == [{"name": "A"}]
        assert sim.now - start < 10.0

    def test_bounded_staleness_still_served_locally(self):
        engine, sim = self._partitioned_setup()
        west = connect(engine, "us-west1")
        rows = west.execute(
            "SELECT name FROM users AS OF SYSTEM TIME "
            "with_max_staleness('30s') "
            "WHERE id = 1 AND crdb_region = 'us-east1'")
        assert rows == [{"name": "A"}]

    def test_heal_restores_fresh_reads(self):
        engine, sim = self._partitioned_setup()
        isolate_region(engine.cluster, "us-east1", heal=True)
        west = connect(engine, "us-west1")
        rows = west.execute("SELECT name FROM users WHERE id = 1 AND "
                            "crdb_region = 'us-east1'")
        assert rows == [{"name": "A"}]


class TestGlobalTablePartitions:
    def test_partitioned_global_replica_serves_stale_reads(self):
        """§6.2.2: a replica cut off from the leaseholder stops getting
        closed-timestamp updates — fresh reads redirect (and fail across
        the partition) but stale reads keep working."""
        bed = KVTestBed(regions=REGIONS3, jitter_fraction=0.0)
        rng = bed.make_range("us-east1", global_reads=True)
        bed.do_write("us-east1", rng, "k", "v")
        bed.settle(3000.0)
        isolate_region(bed.cluster, "europe-west2")
        sim = bed.sim
        gateway = bed.gateway("europe-west2")

        # Stale (exact staleness) read from the local replica: fine.
        stale_ts = Timestamp(sim.now - 2000.0)

        def stale():
            result = yield bed.ds.exact_staleness_read(
                gateway, rng, "k", stale_ts)
            return result.value

        process = sim.spawn(stale())
        assert sim.run_until_future(process) == "v"

    def test_partitioned_global_replica_fresh_reads_eventually_fail(self):
        """Once cut off, the local closed timestamp stops advancing and
        present-time reads must redirect — which the partition blocks."""
        bed = KVTestBed(regions=REGIONS3, jitter_fraction=0.0)
        rng = bed.make_range("us-east1", global_reads=True)
        bed.do_write("us-east1", rng, "k", "v")
        bed.settle(3000.0)
        isolate_region(bed.cluster, "europe-west2")
        # Let the (previously received) closed-timestamp lead expire.
        bed.settle(5000.0)
        sim = bed.sim
        gateway = bed.gateway("europe-west2")

        from repro.kv.distsender import ReadRouting

        def fresh():
            try:
                yield bed.ds.read(gateway, rng, "k",
                                  gateway.clock.now(),
                                  routing=ReadRouting.NEAREST)
            except NetworkUnavailableError:
                return "unreachable"
            return "served"

        process = sim.spawn(fresh())
        assert sim.run_until_future(process) == "unreachable"
