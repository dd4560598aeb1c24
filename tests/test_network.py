"""Tests for the network latency model and RPC fabric."""

import pytest

from repro.cluster import Cluster, Locality, standard_cluster
from repro.sim.core import SimulationError, Simulator
from repro.sim.network import (
    LatencyModel,
    Network,
    NetworkUnavailableError,
    RequestNotSentError,
    TABLE1_REGIONS,
    TABLE1_RTT_MS,
    synthetic_rtt_matrix,
)

from .kv_util import isolate_region


class TestTable1Matrix:
    def test_symmetric(self):
        for (a, b), rtt in TABLE1_RTT_MS.items():
            assert TABLE1_RTT_MS[(b, a)] == rtt

    def test_all_pairs_present(self):
        for a in TABLE1_REGIONS:
            for b in TABLE1_REGIONS:
                if a != b:
                    assert (a, b) in TABLE1_RTT_MS

    def test_paper_values(self):
        # Spot-check the exact numbers from Table 1.
        assert TABLE1_RTT_MS[("us-east1", "us-west1")] == 63.0
        assert TABLE1_RTT_MS[("europe-west2", "australia-southeast1")] == 274.0
        assert TABLE1_RTT_MS[("us-west1", "asia-northeast1")] == 90.0


class TestSyntheticMatrix:
    def test_shape_and_symmetry(self):
        regions = [f"r{i}" for i in range(26)]
        matrix = synthetic_rtt_matrix(regions)
        assert matrix[("r0", "r13")] == matrix[("r13", "r0")]
        assert len(matrix) == 26 * 25

    def test_range_plausible(self):
        matrix = synthetic_rtt_matrix([f"r{i}" for i in range(10)])
        assert all(10.0 < v < 350.0 for v in matrix.values())

    def test_deterministic(self):
        regions = ["a", "b", "c"]
        assert synthetic_rtt_matrix(regions, seed=3) == \
            synthetic_rtt_matrix(regions, seed=3)


class TestLatencyModel:
    def test_intra_zone_cheapest(self):
        model = LatencyModel(jitter_fraction=0.0)
        same_zone = model.rtt("us-east1", "a", "us-east1", "a")
        same_region = model.rtt("us-east1", "a", "us-east1", "b")
        cross = model.rtt("us-east1", "a", "us-west1", "a")
        assert same_zone < same_region < cross

    def test_one_way_is_half_rtt_without_jitter(self):
        model = LatencyModel(jitter_fraction=0.0)
        assert model.one_way("us-east1", "a", "us-west1", "b") == 63.0 / 2

    def test_jitter_bounded(self):
        model = LatencyModel(jitter_fraction=0.1, seed=5)
        base = 63.0 / 2
        for _ in range(100):
            delay = model.one_way("us-east1", "a", "us-west1", "b")
            assert base <= delay <= base * 1.1

    def test_unknown_pair_uses_default(self):
        model = LatencyModel(jitter_fraction=0.0, default_remote_rtt=99.0)
        assert model.rtt("mars", "a", "venus", "b") == 99.0


def _two_node_cluster():
    cluster = standard_cluster(["us-east1", "us-west1"], nodes_per_region=1,
                               jitter_fraction=0.0)
    return cluster, cluster.nodes[0], cluster.nodes[1]


class TestRPC:
    def test_call_round_trip_latency(self):
        cluster, east, west = _two_node_cluster()
        sim = cluster.sim

        def handler():
            return "reply"
            yield  # pragma: no cover

        def main():
            reply = yield cluster.network.call(east, west, handler)
            return reply, sim.now

        reply, now = sim.run_process(main())
        assert reply == "reply"
        # One RTT plus processing overhead on both legs.
        assert 63.0 <= now <= 64.0

    def test_call_handler_exception_propagates(self):
        cluster, east, west = _two_node_cluster()

        def handler():
            raise RuntimeError("handler blew up")
            yield  # pragma: no cover

        def main():
            try:
                yield cluster.network.call(east, west, handler)
            except RuntimeError as err:
                return str(err)

        assert cluster.sim.run_process(main()) == "handler blew up"

    def test_call_to_dead_node_rejects(self):
        cluster, east, west = _two_node_cluster()
        cluster.network.kill_node(west.node_id)

        def main():
            try:
                yield cluster.network.call(east, west, lambda: iter(()))
            except NetworkUnavailableError:
                return "unavailable"

        assert cluster.sim.run_process(main()) == "unavailable"

    def test_partitioned_region_unreachable(self):
        cluster, east, west = _two_node_cluster()
        isolate_region(cluster, "us-west1")

        def main():
            try:
                yield cluster.network.call(east, west, lambda: iter(()))
            except NetworkUnavailableError:
                return "partitioned"

        assert cluster.sim.run_process(main()) == "partitioned"

    def test_heal_restores_connectivity(self):
        cluster, east, west = _two_node_cluster()
        isolate_region(cluster, "us-west1")
        isolate_region(cluster, "us-west1", heal=True)

        def handler():
            return "ok"
            yield  # pragma: no cover

        def main():
            reply = yield cluster.network.call(east, west, handler)
            return reply

        assert cluster.sim.run_process(main()) == "ok"

    def test_same_region_calls_unaffected_by_partition(self):
        cluster = standard_cluster(["us-east1", "us-west1"],
                                   nodes_per_region=2, jitter_fraction=0.0)
        west_nodes = cluster.nodes_in_region("us-west1")
        isolate_region(cluster, "us-west1")

        def handler():
            return "local"
            yield  # pragma: no cover

        def main():
            reply = yield cluster.network.call(west_nodes[0], west_nodes[1],
                                               handler)
            return reply

        assert cluster.sim.run_process(main()) == "local"

    def test_send_one_way(self):
        cluster, east, west = _two_node_cluster()
        seen = []
        cluster.network.send(east, west, lambda: seen.append(cluster.sim.now))
        cluster.sim.run()
        assert len(seen) == 1
        assert 31.0 <= seen[0] <= 32.0

    def test_message_accounting(self):
        cluster, east, west = _two_node_cluster()
        cluster.network.send(east, west, lambda: None)
        cluster.sim.run()
        assert cluster.network.messages_sent == 1


class _Deadline(Exception):
    pass


def _live_timers(sim):
    return [event for event in sim._heap if event[2] is not None]


def _answer(value=None):
    return value
    yield  # pragma: no cover


class TestRpcDeadline:
    """``Network.call(timeout_ms=...)``: the RPC's one future carries its
    own deadline, and the deadline dies with what it guards."""

    def test_reply_first_cancels_the_deadline(self):
        """The deadline becomes a tombstone: it never runs, is never
        counted and leaves no live timer in the heap."""
        cluster, east, west = _two_node_cluster()
        sim = cluster.sim
        built = []

        def factory():
            built.append(sim.now)
            return _Deadline()

        fut = cluster.network.call(east, west, _answer, "reply",
                                   timeout_ms=5_000.0, timeout_error=factory)
        assert sim.run_until_future(fut) == "reply"
        assert 63.0 <= sim.now <= 64.0
        assert _live_timers(sim) == []
        assert sim._tombstones == 1 and len(sim._heap) == 1
        now = sim.now
        sim.run()
        assert sim.now == now  # the tombstone did not even advance the clock
        assert built == []
        assert sim._tombstones == 0
        # The delivery (the handler's one step runs inside it: spawn is
        # eager) and the reply: no deadline.
        assert sim.events_processed == 2

    def test_fault_rejection_cancels_the_deadline(self):
        """A blocked link that kills the request in flight rejects the
        future and cancels its deadline too."""
        cluster, east, west = _two_node_cluster()
        sim = cluster.sim
        fut = cluster.network.call(east, west, lambda: iter(()),
                                   timeout_ms=50.0, timeout_error=_Deadline())
        isolate_region(cluster, "us-west1")
        with pytest.raises(NetworkUnavailableError):
            sim.run_until_future(fut)
        assert _live_timers(sim) == []
        sim.run()
        assert sim.events_processed == 1  # the delivery, and nothing else
        assert sim.now < 50.0

    def test_rejected_at_send_parks_nothing(self):
        cluster, east, west = _two_node_cluster()
        sim = cluster.sim
        isolate_region(cluster, "us-west1")
        fut = cluster.network.call(east, west, lambda: iter(()),
                                   timeout_ms=50.0, timeout_error=_Deadline())
        assert sim._heap == []
        with pytest.raises(RequestNotSentError):
            sim.run_until_future(fut)
        sim.run()
        assert sim.events_processed == 1 and sim.now == 0.0
        assert sim._tombstones == 0

    @pytest.mark.parametrize("error", [_Deadline("instance"),
                                       lambda: _Deadline("factory")])
    def test_deadline_first_rejects_and_drops_the_late_reply(self, error):
        cluster, east, west = _two_node_cluster()
        sim = cluster.sim
        served = []

        def handler(outcome):
            served.append(sim.now)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome
            yield  # pragma: no cover

        futures = [cluster.network.call(east, west, handler, outcome,
                                        timeout_ms=3.0, timeout_error=error)
                   for outcome in ("late", KeyError("late"))]
        sim.run(until=3.0)
        for fut in futures:
            assert isinstance(fut.error, _Deadline)
        sim.run()  # the late replies land at ~63 ms and are dropped
        assert len(served) == 2  # the handlers still ran at the destination
        assert sim.now > 63.0
        assert sim._tombstones == 0
        # Per call: the deadline, the delivery (the handler's first step
        # runs inside it) and the reply; the raising handler adds the
        # event that rejects its process, one ready event after the step.
        assert sim.events_processed == 7

    def test_a_second_completion_that_is_not_a_late_reply_raises(self):
        cluster, east, west = _two_node_cluster()
        sim = cluster.sim
        answered = cluster.network.call(east, west, _answer,
                                        timeout_ms=5_000.0,
                                        timeout_error=_Deadline())
        expired = cluster.network.call(east, west, _answer,
                                       timeout_ms=3.0,
                                       timeout_error=_Deadline())
        sim.run()
        assert answered.done and answered.error is None
        assert isinstance(expired.error, _Deadline)
        with pytest.raises(SimulationError):
            answered.resolve("again")
        with pytest.raises(SimulationError):
            answered(None, KeyError("again"))  # no deadline fired
        with pytest.raises(SimulationError):
            expired.reject(KeyError("again"))


class TestClusterTopology:
    def test_standard_cluster_layout(self):
        cluster = standard_cluster(["a", "b"], nodes_per_region=3)
        assert len(cluster.nodes) == 6
        assert cluster.regions() == ["a", "b"]
        assert len(cluster.zones_in_region("a")) == 3

    def test_locality_parse(self):
        loc = Locality.parse("region=us-east1,zone=us-east1b")
        assert loc.region == "us-east1"
        assert loc.zone == "us-east1b"

    def test_locality_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Locality.parse("zone=only")
        with pytest.raises(ValueError):
            Locality.parse("region=")

    def test_diversity_score(self):
        a = Locality("r1", "z1")
        assert a.diversity_from(Locality("r2", "z9")) == 1.0
        assert a.diversity_from(Locality("r1", "z2")) == 0.5
        assert a.diversity_from(Locality("r1", "z1")) == 0.0

    def test_gateway_selection(self):
        cluster = standard_cluster(["a", "b"], nodes_per_region=2)
        gw = cluster.gateway_for_region("b")
        assert gw.locality.region == "b"

    def test_remove_node_updates_regions(self):
        cluster = standard_cluster(["a", "b"], nodes_per_region=1)
        cluster.remove_node(cluster.nodes_in_region("b")[0])
        assert cluster.regions() == ["a"]
