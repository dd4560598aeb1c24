"""Epoch-OCC reads of GLOBAL tables are served where they are closed.

An epoch-OCC read routed ``NEAREST`` (the executor's routing for GLOBAL
tables) is a present-time read with the CRDB pipeline's uncertainty
window; a GLOBAL range's followers close timestamps more than
``max_offset`` ahead of present time, so the gateway's own replica
serves it.  Commit-time validation still re-reads every observation at
its leaseholder, which is what keeps such a read safe:

* the read is local, and a ``LEASEHOLDER`` read still crosses the WAN;
* a GLOBAL write committed at a future timestamp inside the window is
  observed, and the reader's acknowledgement waits out its timestamp;
* a follower observation that an earlier-ordered commit overwrites
  fails validation and the retry reads the new value — with validation
  off, the same schedule commits the stale read.
"""

from repro.cluster import standard_cluster
from repro.kv.distsender import ReadRouting
from repro.placement import SurvivalGoal, provision_range, zone_config_for_home
from repro.sim import all_of
from repro.sim.clock import TS_MAX
from repro.txn import TransactionCoordinator

from .sql_util import connect, movr_engine

REGIONS = ["us-east1", "europe-west2", "asia-northeast1"]
SERVED = "distsender.follower_reads_served"
HOME, FAR = "us-east1", "europe-west2"


class Bed:
    """An epoch-OCC cluster with one GLOBAL and one REGIONAL range, both
    homed in ``HOME``, each holding one initial key."""

    def __init__(self, seed: int = 0):
        self.cluster = standard_cluster(REGIONS, seed=seed,
                                        txn_protocol="epoch-occ")
        self.sim = self.cluster.sim
        self.coord = TransactionCoordinator(self.cluster)
        self.ds = self.coord.distsender
        config = zone_config_for_home(HOME, self.cluster.regions(),
                                      SurvivalGoal.ZONE)
        self.glob = provision_range(self.cluster, config, name="glob",
                                    global_reads=True,
                                    side_transport_interval_ms=100.0)
        self.reg = provision_range(self.cluster, config, name="reg",
                                   side_transport_interval_ms=100.0)
        now = self.glob.leaseholder_node.clock.now()
        self.glob.bulk_ingest([("g", "v0")], now)
        self.reg.bulk_ingest([("r", "r0")], now)
        self.sim.run(until=self.sim.now + 1000.0)  # close timestamps
        self.home = self.cluster.gateway_for_region(HOME)
        self.far = self.cluster.gateway_for_region(FAR)

    def run(self, *procs):
        """Spawn the transaction processes and run until all finish
        (the side transport ticks forever, so a bare run never ends)."""
        spawned = [self.sim.spawn(proc) for proc in procs]
        return self.sim.run_until_future(all_of(self.sim, spawned))


class TestNearestReadIsLocal:
    def test_global_read_is_follower_served_and_regional_is_not(self):
        bed = Bed()
        sim = bed.sim
        registry = sim.obs.registry
        observed = {}

        def txn_fn(txn):
            for name, rng, key, routing in (
                    ("glob", bed.glob, "g", ReadRouting.NEAREST),
                    ("reg", bed.reg, "r", ReadRouting.LEASEHOLDER)):
                served = registry.value(SERVED)
                start = sim.now
                value = yield from txn.read(rng, key, routing=routing)
                observed[name] = (value, sim.now - start,
                                  registry.value(SERVED) - served)

        bed.run(bed.coord.run(bed.far, txn_fn))
        value, latency, served = observed["glob"]
        assert value == "v0" and served == 1
        assert latency < 10.0
        value, latency, served = observed["reg"]
        assert value == "r0" and served == 0
        # A WAN round trip to the us-east1 leaseholder.
        assert latency > 50.0


class TestFutureObservation:
    def test_a_future_write_inside_the_window_is_seen_and_waited_out(self):
        """A us-east1 epoch write to the GLOBAL range commits at a future
        timestamp T.  Once the europe-west2 follower holds it and T is
        inside a present-time read's uncertainty window there, a reader
        sees it locally — at T — and its acknowledgement waits until its
        gateway clock passes T."""
        bed = Bed()
        sim = bed.sim
        registry = sim.obs.registry
        clock = bed.far.clock
        follower = bed.ds.nearest_replica(bed.far, bed.glob)
        assert not follower.is_leaseholder

        def writer(txn):
            yield from txn.write(bed.glob, "g", "v1")

        writing = sim.spawn(bed.coord.run(bed.home, writer))
        while (follower.store.intent_for("g") is not None
               or follower.store.get("g", TS_MAX).value != "v1"):
            sim.run(until=sim.now + 1.0)
        written_ts = follower.store.get("g", TS_MAX).ts
        while clock.physical_now() + clock.max_offset < written_ts.physical:
            sim.run(until=sim.now + 1.0)
        observed = {}

        def reader(txn):
            observed["start"] = clock.physical_now()
            start = sim.now
            observed["value"] = yield from txn.read(
                bed.glob, "g", routing=ReadRouting.NEAREST)
            observed["latency"] = sim.now - start
            observed["read_set"] = list(txn.read_set)

        served = registry.value(SERVED)
        [(_none, commit_ts)] = bed.run(bed.coord.run(bed.far, reader))
        acked_at = clock.physical_now()
        sim.run_until_future(writing)
        assert observed["start"] < written_ts.physical
        assert observed["value"] == "v1"
        assert observed["latency"] < 10.0
        assert registry.value(SERVED) - served == 1
        assert [ts for _span, _key, ts in observed["read_set"]] == [
            written_ts]
        assert commit_ts == written_ts
        assert acked_at >= written_ts.physical


class TestValidationMakesFollowerReadsSafe:
    def copy_after_overwrite(self, validate: bool):
        """A europe-west2 transaction copies the GLOBAL key into the
        REGIONAL one, reading it at the local follower; a us-east1
        transaction overwrites the GLOBAL key and is ordered first.
        Returns what the copier read on each attempt, the validation
        aborts and the copied value."""
        bed = Bed()
        sim = bed.sim
        registry = sim.obs.registry
        seen = []

        def overwrite(txn):
            yield from txn.write(bed.glob, "g", "v1")

        def copy(txn):
            value = yield from txn.read(bed.glob, "g",
                                        routing=ReadRouting.NEAREST)
            seen.append(value)
            # Think time: the overwrite commits meanwhile, and the copy
            # submits after it, so it is ordered after it.
            yield sim.sleep(400.0)
            yield from txn.write(bed.reg, "r", value)

        def copier():
            yield sim.sleep(1.0)
            result = yield from bed.coord.run(bed.far, copy)
            return result

        served = registry.value(SERVED)
        procs = [sim.spawn(bed.coord.run(bed.home, overwrite)),
                 sim.spawn(copier())]
        sim.run(until=sim.now + 0.5)  # the epoch service now exists
        bed.cluster.epoch_service.validate = validate
        sim.run_until_future(all_of(sim, procs))
        assert registry.value(SERVED) > served

        def audit(txn):
            value = yield from txn.read(bed.reg, "r")
            return value

        [(copied, _ts)] = bed.run(bed.coord.run(bed.home, audit))
        return seen, bed.coord.stats.validation_aborts, copied

    def test_a_stale_observation_fails_validation_once(self):
        seen, aborts, copied = self.copy_after_overwrite(validate=True)
        assert seen == ["v0", "v1"]
        assert aborts == 1
        assert copied == "v1"

    def test_without_validation_the_stale_read_commits(self):
        seen, aborts, copied = self.copy_after_overwrite(validate=False)
        assert seen == ["v0"]
        assert aborts == 0
        assert copied == "v0"


class TestSqlReadBatch:
    def test_global_table_batches_are_read_locally(self):
        """Through SQL on an epoch-OCC engine: an IN-list and a scan of a
        GLOBAL table are one follower read per key at the europe-west2
        gateway; a REGIONAL BY ROW unique-index lookup still fans out to
        the leaseholders."""
        engine, session = movr_engine(txn_protocol="epoch-occ")
        for code in "abc":
            session.execute("INSERT INTO promo_codes (code, description) "
                            f"VALUES ('{code}', 'promo {code}')")
        session.execute(
            "INSERT INTO users (id, email, name) VALUES (1, 'x@y', 'x')")
        sim = engine.cluster.sim
        registry = sim.obs.registry
        sim.run(until=sim.now + 1000.0)
        far = connect(engine, FAR)
        observed = {}

        def body(handle):
            for name, sql in (
                    ("in", "SELECT code FROM promo_codes "
                           "WHERE code IN ('a', 'b', 'c')"),
                    ("scan", "SELECT code FROM promo_codes"),
                    ("unique", "SELECT name FROM users "
                               "WHERE email = 'x@y'")):
                served = registry.value(SERVED)
                start = sim.now
                rows = yield from handle.execute(sql)
                observed[name] = (rows, sim.now - start,
                                  registry.value(SERVED) - served)

        sim.run_until_future(sim.spawn(far.run_txn_co(body)))
        codes = [{"code": code} for code in "abc"]
        assert observed["in"][0] == codes and observed["scan"][0] == codes
        for name in ("in", "scan"):
            _rows, latency, served = observed[name]
            assert served == 3 and latency < 10.0, name
        rows, latency, served = observed["unique"]
        assert rows == [{"name": "x"}]
        assert served == 0 and latency > 50.0
