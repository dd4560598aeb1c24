"""Admission control & overload protection.

Tier-1: unit tests for the token bucket, the work queue in front of
each granter (priority ordering, bounded depth and deadline shedding at
the gateway; evaluation slots at the store), the retry budget, deadline
propagation through the coordinator and DistSender, and a small
open-loop overload run that observability leaves unchanged and whose
fingerprints at seeds {0, 1, 2} match the cost ledger's
(``python -m repro costs``).

Tier-2 (``pytest -m overload``): every gate of the quick scale curve
(including its hot-region leg and post-drain probes) on seeds {0, 1, 2},
and serializability under shedding.
"""

import json
import random
from types import SimpleNamespace

import pytest

from repro.admission import (
    AdmissionConfig,
    AdmissionController,
    Priority,
    RetryBudget,
    TokenBucket,
    install_admission,
)
from repro.admission.tokens import TokenBucket as TokensModuleBucket
from repro.errors import (
    AdmissionRejectedError,
    DeadlineExceededError,
    OverloadError,
    RetryBudgetExhaustedError,
)
from repro.harness.costs import GOLDEN_SEEDS
from repro.sim.core import Simulator

from .kv_util import KVTestBed, REGIONS3

# -- token bucket ------------------------------------------------------------


def drained(rate_per_s, burst):
    """A bucket whose burst was spent at time 0."""
    bucket = TokenBucket(rate_per_s=rate_per_s, burst=burst)
    assert bucket.try_take(0.0, n=burst)
    return bucket


class TestTokenBucket:
    def test_starts_full_and_burst_caps_refill(self):
        bucket = TokenBucket(rate_per_s=100.0, burst=10.0)
        assert bucket.time_until(10.0, 0.0) == 0.0
        for _ in range(10):
            assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)
        # 10 tokens replenish in 100ms at 100/s; an hour of idleness
        # still caps at the burst.
        assert bucket.time_until(10.0, 100.0) == 0.0
        assert bucket.time_until(10.1, 3_600_000.0) == pytest.approx(1.0)

    def test_refill_rate_math(self):
        bucket = drained(rate_per_s=1000.0, burst=50.0)
        # 1000/s == 1 per ms.
        assert bucket.time_until(8.0, 7.0) == pytest.approx(1.0)
        assert bucket.try_take(7.0, n=5.0)
        assert not bucket.try_take(7.0, n=3.0)
        assert bucket.try_take(7.0, n=2.0)

    def test_time_until_deficit(self):
        bucket = drained(rate_per_s=100.0, burst=4.0)
        # Needs 1 token at 100/s => 10ms.
        assert bucket.time_until(1.0, 0.0) == pytest.approx(10.0)
        assert bucket.time_until(1.0, 5.0) == pytest.approx(5.0)
        assert bucket.time_until(1.0, 10.0) == 0.0

    def test_reexported_from_package(self):
        assert TokenBucket is TokensModuleBucket


# -- gateway admission queue -------------------------------------------------


def _admit(sim, queue, priority=Priority.NORMAL, deadline_ms=None):
    """Spawn one admit() and return a result slot filled on completion."""
    slot = {}

    def co():
        try:
            wait = yield queue.admit(priority=priority,
                                     deadline_ms=deadline_ms)
        except Exception as err:  # noqa: BLE001 - recorded for asserts
            slot["error"] = err
        else:
            slot["wait_ms"] = wait
        slot["at"] = sim.now

    sim.spawn(co())
    return slot


def admission(sim, **config):
    """A controller whose queues run on ``sim`` alone."""
    return AdmissionController(SimpleNamespace(sim=sim),
                               AdmissionConfig(**config))


def gateway_queue(sim, rate=100.0, burst=1.0, depth=4):
    """The ``t/r`` gateway queue."""
    return admission(sim, rate_per_s=rate, burst=burst,
                     max_queue_depth=depth).queue_for("t", "r")


class TestAdmissionQueue:
    def test_fast_path_no_wait(self):
        sim = Simulator()
        queue = gateway_queue(sim)
        slot = _admit(sim, queue)
        sim.run()
        assert slot["wait_ms"] == 0.0

    def test_priority_ordering(self):
        sim = Simulator()
        queue = gateway_queue(sim, rate=100.0, burst=1.0)
        first = _admit(sim, queue)                       # takes the token
        low = _admit(sim, queue, priority=Priority.LOW)
        norm = _admit(sim, queue, priority=Priority.NORMAL)
        high = _admit(sim, queue, priority=Priority.HIGH)
        sim.run()
        assert first["wait_ms"] == 0.0
        # One token per 10ms: HIGH admitted before NORMAL before LOW
        # regardless of arrival order.
        assert high["at"] < norm["at"] < low["at"]

    def test_bounded_depth_rejects(self):
        sim = Simulator()
        queue = gateway_queue(sim, rate=1.0, depth=2)
        _admit(sim, queue)                               # token holder
        waiters = [_admit(sim, queue) for _ in range(2)]
        overflow = _admit(sim, queue)
        sim.run(until=1.0)
        assert isinstance(overflow["error"], AdmissionRejectedError)
        assert isinstance(overflow["error"], OverloadError)
        assert all("error" not in w or w.get("wait_ms") is not None
                   for w in waiters)

    def test_expired_waiter_leaves_the_depth_bound(self):
        """A waiter shed at its deadline stops counting toward the
        bound at once, not when the pump reaches its heap entry."""
        sim = Simulator()
        queue = gateway_queue(sim, rate=10.0, burst=1.0, depth=2)
        gauge = sim.obs.registry.gauge("admission.queue_depth", queue="t/r")
        _admit(sim, queue)                               # takes the token
        held = _admit(sim, queue, priority=Priority.HIGH)
        shed = _admit(sim, queue, priority=Priority.LOW, deadline_ms=5.0)
        sim.run(until=10.0)
        assert isinstance(shed["error"], DeadlineExceededError)
        assert gauge.value == 1
        arrival = _admit(sim, queue)
        sim.run(until=10.0)
        assert "error" not in arrival
        assert gauge.value == 2
        sim.run()
        assert held["at"] < arrival["at"]
        assert arrival["wait_ms"] == pytest.approx(190.0)

    def test_deadline_shed_while_queued(self):
        sim = Simulator()
        # 1 token/s: the queue drains far too slowly for a 20ms deadline.
        queue = gateway_queue(sim, rate=1.0, burst=1.0)
        _admit(sim, queue)                               # token holder
        shed = _admit(sim, queue, deadline_ms=20.0)
        sim.run(until=100.0)
        assert isinstance(shed["error"], DeadlineExceededError)
        assert shed["at"] == pytest.approx(20.0)

    def test_admitted_wait_matches_refill(self):
        sim = Simulator()
        queue = gateway_queue(sim, rate=100.0, burst=1.0)
        _admit(sim, queue)
        waiter = _admit(sim, queue)
        sim.run()
        assert waiter["wait_ms"] == pytest.approx(10.0)


# -- store work queue --------------------------------------------------------


class TestStoreWorkQueue:
    def run_work(self, sim, controller, deadline_ms=None):
        slot = {}

        def co():
            try:
                yield from controller.store_work(1, deadline_ms=deadline_ms)
            except Exception as err:  # noqa: BLE001
                slot["error"] = err
            slot["at"] = sim.now

        sim.spawn(co())
        return slot

    def test_slots_serialize_excess_work(self):
        sim = Simulator()
        controller = admission(sim, store_slots=2, store_service_ms=10.0)
        slots = [self.run_work(sim, controller) for _ in range(4)]
        sim.run()
        # 2 slots x 10ms: two finish at 10ms, two queue and finish at 20ms.
        assert sorted(s["at"] for s in slots) == [10.0, 10.0, 20.0, 20.0]

    def test_expired_work_shed_before_service(self):
        sim = Simulator()
        controller = admission(sim, store_slots=1, store_service_ms=50.0)
        self.run_work(sim, controller)                # occupies the slot
        shed = self.run_work(sim, controller, deadline_ms=25.0)
        ok = self.run_work(sim, controller, deadline_ms=500.0)
        sim.run()
        assert isinstance(shed["error"], DeadlineExceededError)
        # Shedding the expired waiter must not wedge the queue.
        assert "error" not in ok
        assert ok["at"] == pytest.approx(100.0)


class TestDepthGaugeIsALiveCount:
    """The depth gauges are kept by a live-waiter count updated where a
    waiter's ``done`` flips, not by recounting the heap on every admit,
    grant and expiry (quadratic under the collapse baseline).  After
    each step of a seeded random admit / expire / grant / release
    sequence the count, and the gauge fed from it, equal a recount."""

    @staticmethod
    def recount(queue):
        return sum(1 for w in queue._waiters if not w.done)

    @pytest.mark.parametrize("seed", range(4))
    def test_admission_queue(self, seed):
        rng = random.Random(seed)
        sim = Simulator()
        queue = gateway_queue(sim, rate=200.0, burst=2.0, depth=8)
        gauge = sim.obs.registry.gauge("admission.queue_depth", queue="t/r")
        peak = 0
        for _ in range(300):
            for _ in range(rng.randrange(4)):
                deadline = (sim.now + rng.uniform(1.0, 40.0)
                            if rng.random() < 0.6 else None)
                queue.admit(priority=rng.randrange(3), deadline_ms=deadline)
                assert queue._live == self.recount(queue)
            sim.run(until=sim.now + rng.uniform(0.0, 12.0))  # expire, pump
            live = self.recount(queue)
            assert queue._live == live == gauge.value
            peak = max(peak, live)
        sim.run()
        assert peak > 1, "the sequence must actually queue"
        assert queue._live == self.recount(queue) == gauge.value == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_store_work_queue(self, seed):
        rng = random.Random(seed)
        sim = Simulator()
        controller = admission(sim, store_slots=2, store_service_ms=3.0)
        queue = controller.queue_for_store(1)
        gauge = sim.obs.registry.gauge("store.queue_depth", node=1)
        peak = 0
        for _ in range(300):
            for _ in range(rng.randrange(4)):
                deadline = (sim.now + rng.uniform(1.0, 15.0)
                            if rng.random() < 0.6 else None)
                sim.spawn(self.work(controller, deadline))
            sim.run(until=sim.now + rng.uniform(0.0, 6.0))
            assert queue._live == self.recount(queue) == gauge.value
            peak = max(peak, queue._live)
        sim.run()
        assert peak > 1, "the sequence must actually queue"
        assert queue._live == self.recount(queue) == gauge.value == 0

    @staticmethod
    def work(controller, deadline_ms):
        try:
            yield from controller.store_work(1, deadline_ms=deadline_ms)
        except DeadlineExceededError:
            pass


# -- retry budget ------------------------------------------------------------


class TestRetryBudget:
    def test_exhaustion_raises_overload(self):
        budget = RetryBudget(max_tokens=3.0, success_credit=0.5,
                             tenant="t")
        budget.check(1)
        budget.check(2)
        budget.check(3)
        with pytest.raises(RetryBudgetExhaustedError) as excinfo:
            budget.check(4)
        assert isinstance(excinfo.value, OverloadError)

    def test_success_credits_refill(self):
        budget = RetryBudget(max_tokens=2.0, success_credit=1.0,
                             tenant="t")
        budget.check(1)
        budget.check(2)
        with pytest.raises(RetryBudgetExhaustedError):
            budget.check(3)
        budget.on_success()
        budget.check(4)  # the credit bought one more retry

    def test_credit_capped_at_max(self):
        budget = RetryBudget(max_tokens=1.0, success_credit=1.0,
                             tenant="t")
        for _ in range(100):
            budget.on_success()
        budget.check(1)
        with pytest.raises(RetryBudgetExhaustedError):
            budget.check(2)


# -- deadline propagation ----------------------------------------------------


class TestDeadlinePropagation:
    def test_expired_deadline_fails_fast(self):
        bed = KVTestBed(regions=REGIONS3)
        rng = bed.make_range("us-east1")
        bed.sim.run(until=500.0)
        gateway = bed.gateway("us-east1")

        def txn_fn(txn):
            yield from txn.write(rng, "k", "v")

        def run():
            try:
                yield from bed.coord.run(gateway, txn_fn,
                                         deadline_ms=bed.sim.now - 1.0)
            except DeadlineExceededError as err:
                return err
            return None

        start = bed.sim.now
        err = bed.sim.run_until_future(bed.sim.spawn(run()))
        assert isinstance(err, DeadlineExceededError)
        assert bed.sim.now == start  # no RPC, no backoff burned

    def test_unreachable_leaseholder_drops_rpc_at_deadline(self):
        """The satellite bugfix: with the leaseholder down, retries must
        stop at the deadline instead of burning the full backoff
        schedule (previously the deadline was only noticed *after* each
        sleep)."""
        bed = KVTestBed(regions=REGIONS3)
        rng = bed.make_range("us-east1")
        bed.sim.run(until=500.0)
        bed.do_write("us-east1", rng, "k", "v0")
        for node in bed.cluster.nodes_in_region("us-east1"):
            bed.cluster.crash_node(node.node_id)
        gateway = bed.gateway("europe-west2")
        deadline_budget = 200.0

        def txn_fn(txn):
            yield from txn.read(rng, "k")

        def run():
            try:
                yield from bed.coord.run(
                    gateway, txn_fn,
                    deadline_ms=bed.sim.now + deadline_budget)
            except DeadlineExceededError as err:
                return err
            return None

        start = bed.sim.now
        err = bed.sim.run_until_future(bed.sim.spawn(run()))
        elapsed = bed.sim.now - start
        assert isinstance(err, DeadlineExceededError)
        # Fails at (or just before) the deadline — never long after it.
        assert elapsed <= deadline_budget + 1.0

    def test_deadline_error_is_not_overload(self):
        # Deadline expiry is the *client's* budget running out, not a
        # server-overload signal; retry/shed accounting treats them
        # differently.
        err = DeadlineExceededError("op", 10.0, 20.0)
        assert not isinstance(err, OverloadError)


# -- controller wiring -------------------------------------------------------


class TestControllerWiring:
    def test_gateway_disabled_skips_queueing(self):
        bed = KVTestBed(regions=REGIONS3)
        controller = install_admission(bed.cluster, AdmissionConfig(
            protections=False))
        assert bed.cluster.admission is controller

        def co():
            wait = yield from controller.admit_co("t", "us-east1")
            return wait

        assert bed.sim.run_until_future(bed.sim.spawn(co())) == 0.0
        assert controller.retry_budget("t") is None

    def test_totals_parse_registry(self):
        bed = KVTestBed(regions=REGIONS3)
        controller = install_admission(bed.cluster, AdmissionConfig(
            rate_per_s=1000.0, burst=4.0, max_queue_depth=1))

        def co():
            yield from controller.admit_co("t", "us-east1")

        bed.sim.run_until_future(bed.sim.spawn(co()))
        totals = controller.totals()
        assert totals["admitted"] == 1
        assert totals["rejected"] == 0


# -- determinism ------------------------------------------------------------


class TestOverloadDeterminism:
    @pytest.mark.parametrize("seed", GOLDEN_SEEDS)
    def test_fingerprint_matches_golden(self, seed, cost_ledger):
        """The open-loop result's fingerprint: the ledger's
        ``overload/<seed>/fingerprint``."""
        cost_ledger.assert_matches("overload", seed, "fingerprint")

    def test_obs_off_is_behavior_identical(self, overload_obs_modes):
        (on, with_obs), (off, without) = (overload_obs_modes[True],
                                          overload_obs_modes[False])
        assert with_obs.fingerprint() == without.fingerprint()

        # ...and every counter-backed reading agrees with the result
        # beside it (with obs off they all silently read 0 once).
        def readings(harness):
            network = harness.cluster.network
            return (harness.cluster.admission.totals(),
                    harness.coord.stats.committed, harness.ds.rpc_retries,
                    network.messages_sent, network.messages_dropped)

        assert readings(off) == readings(on)
        totals = off.cluster.admission.totals()
        assert totals["rejected"] == without.rejected > 0
        assert off.coord.stats.committed == without.completed > 0
        assert off.cluster.network.messages_sent > 0


# -- tier-2 overload sweep (pytest -m overload) ------------------------------


@pytest.mark.overload
@pytest.mark.parametrize("seed", range(3))
def test_scale_quick_gates(seed):
    from repro.harness.scale import GATES, run_scale

    gates = run_scale(seed=seed, quick=True)["gates"]
    # Each gate by name, so one that drops out of the AND still fails.
    assert GATES == ("goodput_holds", "p99_bounded",
                     "collapses_without_admission", "no_livelock",
                     "hot_region_goodput_holds", "hot_region_p99_bounded",
                     "overload_isolated")
    failed = [name for name in GATES if gates[name] is not True]
    assert not failed, json.dumps(gates, indent=2)
    assert gates["ok"] is True


@pytest.mark.overload
def test_verify_clean_under_overload():
    from repro.verify import run_verify

    result = run_verify("overload", seed=0)
    assert result.ok, result.report.render()
    assert result.stats["bg_shed"] + result.stats["bg_rejected"] > 0, (
        "the overload scenario must actually shed load")
