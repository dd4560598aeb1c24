"""Property-based tests (hypothesis) for the epoch-OCC backend.

Protocol-level guarantees, the first three explored over randomized
schedules rather than hand-picked interleavings:

* **Total order** — the epoch service's replicated ordering decisions
  form a total order consistent with what clients observe: batches are
  numbered 0, 1, 2, … in the order log, no transaction is ordered
  twice, commit timestamps respect the decided order between
  transactions that share a key, and no commit is ever acknowledged
  before its batch's order entry has applied at the anchor leaseholder.
* **Exact validation** — an interleaved writer aborts a transaction
  *iff* it wrote into the transaction's read set.  Both directions
  matter: missing aborts are lost updates, spurious aborts are a
  liveness bug the differential sweep would never catch.
* **Epoch wait under clock faults** — ordering is a property of the
  service, not of any node's clock, so drifting gateway clocks never
  let an ack precede its batch's ordering.
* **Order on arrival** — a batch seals as soon as the order round
  before it is done: a lone writer is ordered at once, and what arrives
  during a round shares the next one.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import install_clock_monitor, standard_cluster
from repro.errors import (ClockOutlierRejectedError, RangeUnavailableError,
                          TransactionRetryError, TransactionValidationError)
from repro.kv.commands import EpochOrderCommand
from repro.placement import SurvivalGoal, provision_range, zone_config_for_home
from repro.sim import Future, all_of
from repro.sim.clock import TS_MAX
from repro.txn import TransactionCoordinator
from repro.verify import HistoryRecorder

REGIONS = ["us-east1", "europe-west2", "asia-northeast1"]
HOME = "us-east1"
KEYS = ["a", "b", "c", "d"]


def build(seed: int, goal: SurvivalGoal = SurvivalGoal.REGION):
    cluster = standard_cluster(REGIONS, seed=seed, txn_protocol="epoch-occ")
    coord = TransactionCoordinator(cluster)
    config = zone_config_for_home(HOME, cluster.regions(), goal)
    rng = provision_range(cluster, config, name="occ",
                          side_transport_interval_ms=100.0)
    rng.bulk_ingest([(key, 0) for key in KEYS],
                    rng.leaseholder_node.clock.now())
    return cluster, coord, rng


def _increment(coord, rng, key):
    def txn_fn(txn, key=key):
        value = yield from txn.read(rng, key)
        yield from txn.write(rng, key, value + 1)
    return txn_fn


def run_clients(sim, procs):
    """Run until every client process finishes.  A bare ``sim.run()``
    never returns here — the closed-timestamp side transport ticks
    forever — so tests join the clients, exactly like the harnesses."""
    sim.run_until_future(all_of(sim, procs))


class TestEpochTotalOrder:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16),
           ops=st.lists(
               st.tuples(st.integers(min_value=0, max_value=2),   # region
                         st.integers(min_value=0, max_value=3),   # key
                         st.floats(min_value=0.0, max_value=200.0,
                                   allow_nan=False)),             # start
               min_size=2, max_size=8))
    def test_order_log_is_total_and_acks_respect_it(self, seed, ops):
        cluster, coord, rng = build(seed)
        sim = cluster.sim
        recorder = HistoryRecorder(sim)
        coord.recorder = recorder
        acked = []

        def client(region_index, key_index, delay):
            yield sim.sleep(delay)
            attempts = []

            def txn_fn(txn):
                attempts.append(txn)
                yield from _increment(coord, rng, KEYS[key_index])(txn)

            yield from coord.run(
                cluster.gateway_for_region(REGIONS[region_index], 0),
                txn_fn, max_attempts=8)
            # What the anchor leaseholder has applied at the ack.
            txn = attempts[-1]
            decided = rng.leaseholder_replica.epoch_orders.get(txn.epoch)
            acked.append((txn.txn_id, decided))

        run_clients(sim, [sim.spawn(client(*op)) for op in ops])

        service = cluster.epoch_service
        assert service is not None
        # The order log is a total order: batches are numbered 0, 1, 2,
        # ... and no transaction is ordered twice.
        epochs = [epoch for epoch, _ids in service.order_log]
        assert epochs == list(range(len(epochs)))
        ordered_ids = [txn_id for _epoch, ids in service.order_log
                       for txn_id in ids]
        assert len(ordered_ids) == len(set(ordered_ids))

        epoch_of = {txn_id: epoch for epoch, ids in service.order_log
                    for txn_id in ids}
        position = {txn_id: index for index, txn_id in enumerate(ordered_ids)}
        history = recorder.finalize()
        committed = [t for t in history.txns if t.status == "committed"
                     and t.txn_id in epoch_of]
        # Every client op eventually committed (retries allowed).
        assert sum(1 for t in history.txns
                   if t.status == "committed") == len(ops)
        # Nothing acks before its batch's order entry has applied at the
        # anchor leaseholder, and commit timestamps follow the decided
        # order between transactions that share a key (disjoint ones
        # commute).
        assert len(acked) == len(ops)
        for txn_id, decided in acked:
            assert decided is not None and txn_id in decided
        keys_of = {t.txn_id: {op.key for op in t.ops} for t in committed}
        for first in committed:
            for second in committed:
                if position[first.txn_id] < position[second.txn_id] \
                        and keys_of[first.txn_id] & keys_of[second.txn_id]:
                    assert first.commit_ts < second.commit_ts
        # The per-key table holds running commits only.
        assert service._keys == {}


class TestKeysWaitEpochsDoNot:
    def test_a_disjoint_later_epoch_overtakes_a_slow_one(self):
        """A far-region transaction reads "a" and writes "c": slow, its
        validate, apply and resolve each cross the WAN.  A home-region
        write to "b" ordered in a later epoch acknowledges first — no
        epoch barrier — while a home-region write to "a" in that later
        epoch waits for the slow reader to finish and commits above it
        (started at once, it commits first and below the reader).  Any
        later submission is a later epoch: the slow one's batch sealed
        as it arrived."""
        cluster, coord, rng = build(0)
        sim = cluster.sim
        submitted = Future(sim)
        acked = {}

        def slow():
            txn = coord.begin(cluster.gateway_for_region("asia-northeast1",
                                                         0))
            yield from txn.read(rng, "a")
            yield from txn.write(rng, "c", "slow")
            submitted.resolve()
            yield from txn.commit()
            acked["slow"] = (txn.epoch, sim.now, txn.commit_ts)

        def home(name, key):
            yield submitted
            yield sim.sleep(1.0)
            txn = coord.begin(cluster.gateway_for_region(HOME, 0))
            yield from txn.write(rng, key, name)
            yield from txn.commit()
            acked[name] = (txn.epoch, sim.now, txn.commit_ts)

        run_clients(sim, [sim.spawn(slow()),
                          sim.spawn(home("disjoint", "b")),
                          sim.spawn(home("conflicting", "a"))])

        slow, disjoint, conflicting = (acked[name] for name in (
            "slow", "disjoint", "conflicting"))
        assert slow[0] < disjoint[0] == conflicting[0]
        assert disjoint[1] < slow[1] < conflicting[1]
        assert slow[2] < conflicting[2]
        assert cluster.epoch_service._keys == {}


class TestValidationIsExact:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16),
           read_keys=st.sets(st.sampled_from(KEYS), min_size=1, max_size=3),
           write_keys=st.sets(st.sampled_from(KEYS), min_size=0, max_size=2))
    def test_aborts_iff_writer_hits_read_set(self, seed, read_keys,
                                             write_keys):
        """T1 reads ``read_keys``, then T2 commits writes to
        ``write_keys`` before T1 submits: T1 must fail validation
        exactly when the sets intersect."""
        cluster, coord, rng = build(seed)
        sim = cluster.sim
        gateway = cluster.gateway_for_region(HOME, 0)
        outcome = {}

        def t1():
            # Drive the handle directly (not coord.run) so the abort
            # type is observable: the retry loop's give-up error is a
            # plain TransactionRetryError whatever the last cause was.
            txn = coord.begin(gateway)
            for key in sorted(read_keys):
                yield from txn.read(rng, key)
            # Hold the read set open long enough for T2's commit
            # (local quorum, well under 600ms) to land first.
            yield sim.sleep(600.0)
            yield from txn.write(rng, "t1-marker", 1)
            try:
                yield from txn.commit()
                outcome["t1"] = "committed"
            except TransactionValidationError:
                outcome["t1"] = "validation"
                yield from txn.rollback()
            except TransactionRetryError:
                outcome["t1"] = "retry"
                yield from txn.rollback()

        def t2():
            yield sim.sleep(150.0)
            def txn_fn(txn):
                for key in sorted(write_keys):
                    value = yield from txn.read(rng, key)
                    yield from txn.write(rng, key, value + 1)
                return None
            yield from coord.run(gateway, txn_fn, max_attempts=8)
            outcome["t2"] = "committed"

        run_clients(sim, [sim.spawn(t1()), sim.spawn(t2())])

        assert outcome["t2"] == "committed"
        conflict = bool(read_keys & write_keys)
        expected = "validation" if conflict else "committed"
        assert outcome["t1"] == expected, (
            f"read={sorted(read_keys)} write={sorted(write_keys)} "
            f"conflict={conflict}: t1 -> {outcome['t1']}")


class TestEpochWaitUnderClockFaults:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16),
           drifts=st.lists(st.floats(min_value=-0.04, max_value=0.04,
                                     allow_nan=False),
                           min_size=3, max_size=3),
           ops=st.lists(
               st.tuples(st.integers(min_value=0, max_value=2),
                         st.integers(min_value=0, max_value=3),
                         st.floats(min_value=0.0, max_value=150.0,
                                   allow_nan=False)),
               min_size=1, max_size=6))
    def test_no_ack_before_its_batch_is_ordered(self, seed, drifts, ops):
        """Per-region clock drift (±4%) must never produce an
        acknowledgement that precedes its batch's ordering: the order
        entry has applied at the anchor leaseholder, after the
        submission, by the time the client sees the ack."""
        cluster, coord, rng = build(seed)
        sim = cluster.sim
        # Drift one node per region (gateways included) — the epoch
        # machinery must not inherit any node's idea of time.
        for region_index, rate in enumerate(drifts):
            node = cluster.gateway_for_region(REGIONS[region_index], 0)
            cluster.clock.set_drift(node.node_id, rate)
        ordered_at = {}
        replica = rng.leaseholder_replica
        apply = replica.apply

        def timed_apply(command):
            if isinstance(command, EpochOrderCommand):
                ordered_at.setdefault(command.epoch, sim.now)
            apply(command)

        replica.apply = timed_apply
        acks = []

        def client(region_index, key_index, delay):
            yield sim.sleep(delay)
            gateway = cluster.gateway_for_region(REGIONS[region_index], 0)
            txn = coord.begin(gateway)
            value = yield from txn.read(rng, KEYS[key_index])
            yield from txn.write(rng, KEYS[key_index], value + 1)
            try:
                yield from txn.commit()
            except TransactionRetryError:
                yield from txn.rollback()
                return
            acks.append((txn.submitted_at_ms, txn.epoch, sim.now))

        run_clients(sim, [sim.spawn(client(*op)) for op in ops])

        assert acks, "no transaction committed under drift"
        for submitted, epoch, acked in acks:
            assert submitted <= ordered_at[epoch] <= acked


class TestOrderOnArrival:
    def test_a_lone_writer_on_an_idle_service_is_ordered_at_once(self):
        """A home-region increment on a ZONE-survival range: order,
        validate, apply and resolve are each a home-region round, and
        nothing waits for company or a boundary."""
        cluster, coord, rng = build(0, SurvivalGoal.ZONE)
        sim = cluster.sim
        txn = coord.begin(cluster.gateway_for_region(HOME, 0))

        def body():
            yield sim.sleep(100.0)
            value = yield from txn.read(rng, "a")
            yield from txn.write(rng, "a", value + 1)
            yield from txn.commit()

        sim.run_until_future(sim.spawn(body()))
        assert sim.now - txn.submitted_at_ms < 10.0
        assert cluster.epoch_service.order_log == [(0, (txn.txn_id,))]

    def test_arrivals_during_a_round_share_the_next_order_entry(self):
        """One writer submits on an idle service; three more submit 1 ms
        later, while its order round (a REGION-survival quorum, so a WAN
        round) is in flight: they are the next batch, one entry."""
        cluster, coord, rng = build(0)
        sim = cluster.sim

        def writer(key, delay):
            yield sim.sleep(delay)
            txn = coord.begin(cluster.gateway_for_region(HOME, 0))
            yield from txn.write(rng, key, key)
            yield from txn.commit()
            return txn.txn_id

        first = sim.spawn(writer("a", 100.0))
        rest = [sim.spawn(writer(key, 101.0)) for key in KEYS[1:]]
        run_clients(sim, [first] + rest)
        batches = [(0, (first.value,)), (1, tuple(p.value for p in rest))]
        assert cluster.epoch_service.order_log == batches
        assert rng.leaseholder_replica.epoch_orders == dict(batches)


class TestRetryableCommitSteps:
    @pytest.mark.parametrize("reads", [True, False],
                             ids=["validate", "apply"])
    def test_a_clock_outlier_rejection_aborts_retryably(self, reads):
        """The gateway's clock jumps +2000 ms between execution and
        commit: the leaseholder (another node) rejects the first commit
        step sent at the jumped clock — validation's read, or a blind
        write's apply — and the ack rejects retryably with the per-key
        table left empty."""
        cluster, coord, rng = build(0)
        install_clock_monitor(cluster)
        sim = cluster.sim
        gateway = cluster.gateway_for_region("europe-west2", 0)
        assert gateway.node_id != rng.leaseholder_node_id
        txn = coord.begin(gateway)

        def body():
            if reads:
                yield from txn.read(rng, "a")
            yield from txn.write(rng, "a", "x")
            cluster.clock.jump(gateway.node_id, 2000.0)
            try:
                yield from txn.commit()
            except TransactionRetryError as err:
                return err

        error = sim.run_until_future(sim.spawn(body()))
        assert isinstance(error, ClockOutlierRejectedError)
        assert txn.abort_reason == "retry"
        assert cluster.epoch_service._keys == {}


# -- the batched commit pipeline (one RPC / one Raft entry per range) --------


def read_value(cluster, rng, key):
    """The latest committed value on the leaseholder (no transaction).
    Not at the leaseholder's clock: a commit is acknowledged once the
    *gateway* clock passes its timestamp, and after a split the owning
    leaseholder's clock may still be below it."""
    owner = rng.span.descriptor_for_key(key).rng
    store = owner.leaseholder_replica.store
    return store.get(key, TS_MAX).value


class TestTokensAreKeyedOnTheirSpan:
    """A Range and its TableSpan address the same keys (the PR 16 token
    contract), so a key reached through both must be ONE key to the
    write buffer, the read set and the service's per-key table."""

    def test_two_tokens_one_key_one_dependency(self):
        cluster, coord, rng = build(0)
        sim = cluster.sim
        gateway = cluster.gateway_for_region(HOME, 0)
        t1, t2 = coord.begin(gateway), coord.begin(gateway)
        run_clients(sim, [sim.spawn(t1.write(rng, "k", 1)),
                          sim.spawn(t2.write(rng.span, "k", 2))])
        service = cluster.epoch_service
        first, second = Future(sim), Future(sim)
        assert service._claim(t1, first) == []
        assert service._claim(t2, second) == [first]
        service._release(t1, first)
        service._release(t2, second)
        assert service._keys == {}

    def test_read_through_one_token_sees_write_through_the_other(self):
        cluster, coord, rng = build(0)
        txn = coord.begin(cluster.gateway_for_region(HOME, 0))

        def body():
            yield from txn.write(rng, "a", 41)
            one = yield from txn.read(rng.span, "a")
            many = yield from txn.read_batch([(rng.span, "a"), (rng, "a")])
            return one, many

        sim = cluster.sim
        assert sim.run_until_future(sim.spawn(body())) == (41, [41, 41])
        assert txn.read_set == []  # served from the buffer, not the store
        assert list(txn.write_buffer) == [(rng.span, "a")]

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_same_epoch_increments_through_both_tokens_both_count(self,
                                                                  seed):
        """Keyed on the token object, the two transactions landed in two
        "key-disjoint" groups that validated in parallel against the
        same snapshot: a lost update."""
        cluster, coord, rng = build(seed)
        sim = cluster.sim
        gateway = cluster.gateway_for_region(HOME, 0)

        def client(token):
            yield from coord.run(gateway, _increment(coord, token, "a"),
                                 max_attempts=8)

        run_clients(sim, [sim.spawn(client(rng)),
                          sim.spawn(client(rng.span))])
        assert read_value(cluster, rng, "a") == 2


class TestBatchedValidation:
    def capture_batches(self, cluster):
        ds = cluster.epoch_service.ds
        captured = []
        read_batch = ds.read_batch

        def capturing(gateway, requests, *args, **kwargs):
            captured.append(list(requests))
            return read_batch(gateway, requests, *args, **kwargs)

        ds.read_batch = capturing
        return captured

    def run_t1(self, cluster, coord, rng, interleave):
        """T1 reads "a" twice; with ``interleave`` another transaction
        commits a write to "a" between the two reads."""
        sim = cluster.sim
        gateway = cluster.gateway_for_region(HOME, 0)
        txn = coord.begin(gateway)
        # The service exists once any transaction has begun.
        batches = self.capture_batches(cluster)

        def t1():
            yield from txn.read(rng, "a")
            if interleave:
                yield from coord.run(gateway, _increment(coord, rng, "a"))
            yield from txn.read(rng, "a")
            yield from txn.write(rng, "t1-marker", 1)
            try:
                yield from txn.commit()
                return "committed"
            except TransactionValidationError:
                yield from txn.rollback()
                return "validation"

        outcome = sim.run_until_future(sim.spawn(t1()))
        return outcome, txn, batches

    def test_duplicate_entries_are_read_once(self):
        cluster, coord, rng = build(0)
        outcome, txn, batches = self.run_t1(cluster, coord, rng, False)
        assert outcome == "committed"
        assert [key for _span, key, _ts in txn.read_set] == ["a", "a"]
        assert batches == [[(rng.span, "a")]]  # one distinct key travels
        registry = cluster.sim.obs.registry
        # ... while the counter keeps counting read-set entries.
        assert registry.counter("txn.validation_reads").value == 2

    def test_every_observation_is_judged(self):
        """The second read saw the interleaved version — the one that is
        current at validation — but the first did not: still an abort."""
        cluster, coord, rng = build(0)
        outcome, txn, batches = self.run_t1(cluster, coord, rng, True)
        first, second = (ts for _span, _key, ts in txn.read_set)
        assert first != second
        assert outcome == "validation"
        # Both validations (the interleaved writer's, then T1's own)
        # carried the key once.
        assert batches == [[(rng.span, "a")]] * 2


class TestBatchedApply:
    def two_ranges(self, seed=0):
        cluster = standard_cluster(REGIONS, seed=seed,
                                   txn_protocol="epoch-occ")
        coord = TransactionCoordinator(cluster)
        ranges = []
        for home, name in ((HOME, "healthy"), ("europe-west2", "doomed")):
            config = zone_config_for_home(home, cluster.regions(),
                                          SurvivalGoal.ZONE)
            ranges.append(provision_range(
                cluster, config, name=name,
                side_transport_interval_ms=100.0,
                proposal_timeout_ms=500.0))
        cluster.sim.run(until=300.0)
        return cluster, coord, ranges

    def test_partial_failure_resolves_exactly_what_was_laid(self):
        """One range group fails (quorum lost): the other group's
        intents were laid, are in ``laid``, and are resolved as aborted
        — nothing committed, no latch left, the error retryable."""
        cluster, coord, (healthy, doomed) = self.two_ranges()
        sim = cluster.sim
        for peer in doomed.group.voters():
            if peer.node.node_id != doomed.leaseholder_node_id:
                cluster.network.kill_node(peer.node.node_id)
        ds = coord.distsender
        resolved = []
        resolve_intents = ds.resolve_intents

        def capturing(gateway, spans, txn_id, commit_ts, span=None):
            resolved.append((list(spans), commit_ts))
            return resolve_intents(gateway, spans, txn_id, commit_ts,
                                   span=span)

        ds.resolve_intents = capturing
        txn = coord.begin(cluster.gateway_for_region(HOME, 0))

        def body():
            yield from txn.write_batch([
                (healthy, "a", 1), (doomed, "x", 2),
                (healthy, "b", 3), (doomed, "y", 4)])
            try:
                yield from txn.commit()
            except Exception as err:  # noqa: BLE001 - asserted below
                return err

        error = sim.run_until_future(sim.spawn(body()))
        assert isinstance(error, RangeUnavailableError)
        assert txn.abort_reason == "retry"
        assert resolved == [
            ([(healthy.span, "a"), (healthy.span, "b")], None)]
        sim.run(until=sim.now + 200.0)
        store = healthy.leaseholder_replica.store
        for key in ("a", "b"):
            assert store.intent_for(key) is None
            assert store.get(key, txn.read_ts.add(10_000)).value is None
        assert healthy.lock_table.is_quiescent()

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16),
           splits=st.sets(st.sampled_from(KEYS[1:]), max_size=3),
           late_split=st.sampled_from([None] + KEYS[1:]),
           transfers=st.lists(
               st.tuples(st.integers(min_value=0, max_value=2),   # region
                         st.sampled_from(KEYS), st.sampled_from(KEYS),
                         st.floats(min_value=0.0, max_value=120.0,
                                   allow_nan=False)),             # start
               min_size=2, max_size=8))
    def test_transfers_over_a_reshaping_span_conserve_the_sum(
            self, seed, splits, late_split, transfers):
        """Multi-key transactions (read_batch + write_batch, validated
        and applied one batch per range) over a span of 1-4 ranges that
        may split again mid-run: every transfer commits exactly once."""
        cluster, coord, rng = build(seed)
        sim = cluster.sim
        span = rng.span
        rng.bulk_ingest([(key, 100) for key in KEYS],
                        rng.leaseholder_node.clock.now())
        for key in sorted(splits):
            cluster.keyspace.split(span.descriptor_for_key(key), key,
                                   trigger="test")
        if late_split is not None and late_split not in splits:
            sim.call_after(60.0, lambda: cluster.keyspace.split(
                span.descriptor_for_key(late_split), late_split,
                trigger="test"))

        def client(region_index, src, dst, delay):
            yield sim.sleep(delay)

            def txn_fn(txn):
                a, b = yield from txn.read_batch([(span, src), (span, dst)])
                if src != dst:
                    yield from txn.write_batch([(span, src, a - 1),
                                                (span, dst, b + 1)])

            yield from coord.run(
                cluster.gateway_for_region(REGIONS[region_index], 0),
                txn_fn, max_attempts=16)

        run_clients(sim, [sim.spawn(client(*t)) for t in transfers])
        balances = {key: read_value(cluster, rng, key) for key in KEYS}
        assert sum(balances.values()) == 100 * len(KEYS)
        for key in KEYS:
            moved = (sum(1 for _r, s, d, _t in transfers
                         if d == key and s != key)
                     - sum(1 for _r, s, d, _t in transfers
                           if s == key and d != key))
            assert balances[key] == 100 + moved
        assert cluster.keyspace.violations() == []
