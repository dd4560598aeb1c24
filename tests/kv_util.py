"""Shared helpers for KV-level integration tests."""

from repro.cluster import standard_cluster
from repro.kv.distsender import DistSender, ReadRouting
from repro.placement import SurvivalGoal, provision_range, zone_config_for_home
from repro.txn import TransactionCoordinator

REGIONS5 = ["us-east1", "us-west1", "europe-west2", "asia-northeast1",
            "australia-southeast1"]
REGIONS3 = ["us-east1", "europe-west2", "asia-northeast1"]


def learn_commit(sim, *rngs, limit_ms=1000.0):
    """Run until every replica of ``rngs`` knows its range's commit
    index.  A follower learns an entry committed from the next append or
    side-transport tick that reaches it, not at the commit itself."""
    deadline = sim.now + limit_ms
    while any(peer.known_commit_index < rng.group.commit_index
              for rng in rngs for peer in rng.group.peers.values()):
        assert sim.now < deadline, "a follower never learned the commit"
        sim.run(until=sim.now + 5.0)


def isolate_region(cluster, region, heal=False):
    """Cut (``heal=True``: restore) every link between ``region`` and
    the cluster's other regions, in both directions."""
    faults = cluster.network.faults
    change = faults.heal_link if heal else faults.cut_link
    for other in cluster.regions():
        if other != region:
            change(region, other, bidirectional=True)


class KVTestBed:
    """A cluster, a coordinator, and helpers for one-shot transactions."""

    def __init__(self, regions=REGIONS5, nodes_per_region=3,
                 max_clock_offset=250.0, skew_fraction=0.5,
                 jitter_fraction=0.0, goal=SurvivalGoal.ZONE, seed=0,
                 spanner_style_commit_wait=False,
                 side_transport_interval_ms=100.0, txn_protocol=None):
        self.cluster = standard_cluster(
            regions, nodes_per_region=nodes_per_region,
            max_clock_offset=max_clock_offset, skew_fraction=skew_fraction,
            jitter_fraction=jitter_fraction, seed=seed,
            txn_protocol=txn_protocol)
        self.goal = goal
        self.side_transport_interval_ms = side_transport_interval_ms
        self.coord = TransactionCoordinator(self.cluster)
        self.coord.spanner_style_commit_wait = spanner_style_commit_wait
        self.ds = self.coord.distsender

    @property
    def sim(self):
        return self.cluster.sim

    def make_range(self, home_region, global_reads=False,
                   placement_restricted=False, closed_ts_lag_ms=None):
        config = zone_config_for_home(
            home_region, self.cluster.regions(), self.goal,
            placement_restricted=placement_restricted)
        return provision_range(
            self.cluster, config, global_reads=global_reads,
            side_transport_interval_ms=self.side_transport_interval_ms,
            closed_ts_lag_ms=closed_ts_lag_ms)

    def gateway(self, region, index=0):
        return self.cluster.gateway_for_region(region, index)

    # -- one-shot transaction helpers ------------------------------------------

    def do_write(self, region, rng, key, value):
        """Run a single-write transaction from ``region``; returns
        (commit_ts, elapsed_ms)."""
        gateway = self.gateway(region)
        start = self.sim.now

        def txn_fn(txn):
            yield from txn.write(rng, key, value)
            return None

        def main():
            _result, commit_ts = yield from self.coord.run(gateway, txn_fn)
            return commit_ts

        process = self.sim.spawn(main())
        commit_ts = self.sim.run_until_future(process)
        return commit_ts, self.sim.now - start

    def do_read(self, region, rng, key, routing=ReadRouting.LEASEHOLDER):
        """Run a single-read transaction from ``region``; returns
        (value, elapsed_ms)."""
        gateway = self.gateway(region)
        start = self.sim.now

        def txn_fn(txn):
            value = yield from txn.read(rng, key, routing=routing)
            return value

        def main():
            value, _commit_ts = yield from self.coord.run(gateway, txn_fn)
            return value

        process = self.sim.spawn(main())
        value = self.sim.run_until_future(process)
        return value, self.sim.now - start

    def run_txn(self, region, txn_fn):
        """Run an arbitrary transaction function; returns (result, elapsed)."""
        gateway = self.gateway(region)
        start = self.sim.now

        def main():
            result, _commit_ts = yield from self.coord.run(gateway, txn_fn)
            return result

        process = self.sim.spawn(main())
        result = self.sim.run_until_future(process)
        return result, self.sim.now - start

    def settle(self, ms=500.0):
        """Let replication/side-transport catch up."""
        self.sim.run(until=self.sim.now + ms)
