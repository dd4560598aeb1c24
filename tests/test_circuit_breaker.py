"""Circuit-breaker unit tests: trip/cooldown/probe lifecycle, the
HALF_OPEN single-probe rule under concurrency, and reset-on-restart."""

import pytest

from repro.cluster import standard_cluster
from repro.errors import DatabaseError
from repro.kv.circuit import BreakerSet, BreakerState, CircuitBreaker
from repro.kv.distsender import DistSender

from .kv_util import KVTestBed

REGIONS3 = ["us-east1", "europe-west2", "asia-northeast1"]


class TestBreakerLifecycle:
    def test_trips_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown_ms=500.0)
        for t in (0.0, 1.0):
            breaker.record_failure(t)
            assert breaker.state == BreakerState.CLOSED
        breaker.record_failure(2.0)
        assert breaker.state == BreakerState.OPEN
        assert breaker.trips == 1
        assert not breaker.allow(100.0)
        assert breaker.blocked(100.0)

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure(0.0)
        breaker.record_failure(1.0)
        breaker.record_success()
        breaker.record_failure(2.0)
        breaker.record_failure(3.0)
        assert breaker.state == BreakerState.CLOSED

    def test_successful_probe_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_ms=100.0)
        breaker.record_failure(0.0)
        assert breaker.allow(150.0)  # the probe
        breaker.record_success()
        assert breaker.state == BreakerState.CLOSED
        assert breaker.allow(151.0)

    def test_failed_probe_reopens_with_fresh_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_ms=100.0)
        breaker.record_failure(0.0)
        assert breaker.allow(150.0)
        breaker.record_failure(150.0)
        assert breaker.state == BreakerState.OPEN
        assert not breaker.allow(200.0)   # cooldown restarted at 150
        assert breaker.allow(260.0)       # 110ms later: next probe


class TestHalfOpenSingleProbe:
    def test_concurrent_requests_admit_exactly_one_probe(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_ms=100.0)
        breaker.record_failure(0.0)
        # Cooldown elapsed; a burst of concurrent requests arrives.
        admitted = [breaker.allow(150.0) for _ in range(5)]
        assert admitted == [True, False, False, False, False]
        assert breaker.state == BreakerState.HALF_OPEN
        # Probe succeeds: the breaker closes and traffic flows again.
        breaker.record_success()
        assert all(breaker.allow(151.0) for _ in range(3))

    def test_next_probe_allowed_after_probe_fails(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_ms=100.0)
        breaker.record_failure(0.0)
        assert breaker.allow(150.0)
        assert not breaker.allow(150.0)
        breaker.record_failure(151.0)
        # Back to OPEN; after another full cooldown exactly one probe.
        admitted = [breaker.allow(260.0) for _ in range(3)]
        assert admitted == [True, False, False]


class TestReset:
    def test_reset_clears_state_and_stranded_probe(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown_ms=100.0)
        breaker.record_failure(0.0)
        assert breaker.allow(150.0)  # probe departs... and is abandoned
        breaker.reset()
        assert breaker.state == BreakerState.CLOSED
        assert breaker.consecutive_failures == 0
        assert breaker.trips == 1  # lifetime counter survives
        # Without the reset the stranded probe would deny forever.
        assert breaker.allow(151.0)
        assert breaker.allow(152.0)

    def test_breaker_set_reset_targets_one_node(self):
        breakers = BreakerSet(failure_threshold=1)
        breakers.for_node(1).record_failure(0.0)
        breakers.for_node(2).record_failure(0.0)
        breakers.reset(1)
        breakers.reset(99)  # unknown node: no-op
        assert breakers.for_node(1).state == BreakerState.CLOSED
        assert breakers.for_node(2).state == BreakerState.OPEN
        assert breakers.total_trips() == 2

    def test_distsender_resets_breaker_when_node_restarts(self):
        cluster = standard_cluster(REGIONS3, nodes_per_region=1, seed=0)
        sender = DistSender(cluster)
        victim = cluster.nodes[0].node_id
        breaker = sender.breakers.for_node(victim)
        for t in (0.0, 1.0, 2.0):
            breaker.record_failure(t)
        assert breaker.is_open
        cluster.network.crash_node(victim)
        cluster.network.restart_node(victim)
        assert breaker.state == BreakerState.CLOSED
        assert breaker.allow(3.0)


class TestProgrammingErrorsAreNotAnswers:
    def test_a_handler_bug_surfaces_and_leaves_the_breaker_alone(self):
        """Only a ``DatabaseError`` is the node answering: a serve path
        that raises ``TypeError`` is a bug, so it records no breaker
        success and surfaces from the run past a client that handles
        database errors."""
        bed = KVTestBed(regions=REGIONS3)
        rng = bed.make_range("us-east1")
        gateway = bed.gateway("us-east1")
        breaker = bed.ds.breakers.for_node(rng.leaseholder_node.node_id)
        breaker.record_failure(bed.sim.now)

        def buggy(_rng, _span):
            raise TypeError("bug in a serve path")
            yield  # pragma: no cover

        def client():
            try:
                yield bed.ds._leaseholder_call(gateway, rng, buggy)
            except DatabaseError:
                return "answered"

        process = bed.sim.spawn(client())
        with pytest.raises(TypeError, match="bug in a serve path"):
            bed.sim.run_until_future(process, limit=bed.sim.now + 1_000.0)
        assert breaker.consecutive_failures == 1
