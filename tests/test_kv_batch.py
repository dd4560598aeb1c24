"""Per-range batching: ``DistSender.read_batch`` / ``write_batch`` /
``resolve_intents`` send one ``read`` / ``write`` / ``resolve_intent``
request per owning range, which ``Range.serve_read`` / ``serve_write``
/ ``serve_resolve_intent`` serve — several keys in one visit and one
``BatchCommand``, one key as the bare command.

A batch is its one-key requests with fewer messages, so most of this
file is differential: same results, same replicated state, same
leaseholder state — and then the things only a batch can get wrong:
its message budget, a split landing between grouping and serving,
a group failing beside groups that succeeded, and latches left behind
by a request that fails half way through its keys.
"""

import gc

from hypothesis import given, settings, strategies as st

from repro.admission import AdmissionConfig, install_admission
from repro.errors import (
    DeadlineExceededError,
    RangeKeyMismatchError,
    RangeUnavailableError,
    TransactionAbortedError,
)
from repro.kv.commands import (
    BatchCommand,
    PutIntentCommand,
    ResolveIntentCommand,
)
from repro.kv.distsender import _Batch
from repro.placement import SurvivalGoal, provision_range, zone_config_for_home
from repro.sim.core import settle_all

from .kv_util import REGIONS3, KVTestBed, learn_commit
from .test_raft import count_sends

HOME = "us-east1"
N_KEYS = 8


def make_bed(splits=()):
    """A jitter-free three-region bed with one REGIONAL range (3 voters
    at home + 2 learners) holding keys 0..N_KEYS-1, split at ``splits``."""
    bed = KVTestBed(regions=REGIONS3)
    rng = bed.make_range(HOME)
    rng.bulk_ingest([(key, f"v{key}") for key in range(N_KEYS)],
                    rng.leaseholder_node.clock.now())
    for split_key in sorted(splits):
        bed.cluster.keyspace.split(
            rng.span.descriptor_for_key(split_key), split_key,
            trigger="test")
    bed.settle()
    return bed, rng.span


def run(bed, future):
    return bed.sim.run_until_future(future)


def count_calls(cluster):
    """Record the payload size of every ``Network.call``."""
    sizes = []
    call = cluster.network.call

    def counting(src, dst, handler, *args, payload_size=1, **kwargs):
        sizes.append(payload_size)
        return call(src, dst, handler, *args, payload_size=payload_size,
                    **kwargs)

    cluster.network.call = counting
    return sizes


def leaseholder_state(span):
    """Everything a request can leave on the leaseholders of ``span``:
    MVCC versions and intents, lock-table holders, timestamp cache."""
    state = []
    for descriptor in span.descriptors:
        rng = descriptor.rng
        store = rng.leaseholder_replica.store
        versions = {}
        for key in sorted(store.keys()):
            history = store._data[key]
            intent = history.intent
            versions[key] = (
                [(history.ts_at(i), history.values[i])
                 for i in range(len(history.values))],
                intent and (intent.txn_id, intent.ts, intent.value))
        holders = {key: (holder.txn_id, holder.ts)
                   for key, holder in rng.lock_table._holders.items()}
        reads = {key: (entry.top_ts, entry.top_txn, entry.other_ts)
                 for key, entry in rng.ts_cache._by_key.items()}
        state.append((descriptor.span_repr(), versions, holders, reads,
                      rng.ts_cache.low_water))
    return state


class TestBatchedEqualsPerKey:
    """With jitter off the two paths see the same arrival times, so
    everything they compute must agree exactly."""

    @settings(max_examples=25, deadline=None)
    @given(splits=st.sets(st.integers(min_value=1, max_value=N_KEYS - 1),
                          max_size=3),
           read_keys=st.lists(st.integers(min_value=0, max_value=N_KEYS - 1),
                              min_size=1, max_size=10),
           write_keys=st.sets(st.integers(min_value=0, max_value=N_KEYS - 1),
                              min_size=1, max_size=N_KEYS))
    def test_same_results_and_same_leaseholder_state(self, splits,
                                                     read_keys, write_keys):
        write_keys = sorted(write_keys)
        observed = []
        for batched in (False, True):
            bed, span = make_bed(splits)
            ds, gateway = bed.ds, bed.gateway(HOME)
            read_ts = gateway.clock.now()
            # Transaction 1 reads (possibly the same key twice) ...
            if batched:
                reads = run(bed, ds.read_batch(
                    gateway, [(span, key) for key in read_keys], read_ts,
                    txn_id=1))
            else:
                reads = [fut.value for fut in run(bed, settle_all(bed.sim, [
                    ds.read(gateway, span, key, read_ts, txn_id=1)
                    for key in read_keys]))]
            # ... and transaction 2 writes *below* those reads, so the
            # timestamp cache decides the intent timestamps.
            write_ts = read_ts.prev()
            if batched:
                stamps = run(bed, ds.write_batch(
                    gateway, [(span, key, f"w{key}") for key in write_keys],
                    write_ts, 2, anchor_node_id=gateway.node_id))
            else:
                stamps = [fut.value for fut in run(bed, settle_all(bed.sim, [
                    ds.write(gateway, span, [(key, f"w{key}")], write_ts, 2,
                             anchor_node_id=gateway.node_id)
                    for key in write_keys]))]
            laid = leaseholder_state(span)
            run(bed, ds.resolve_intents(
                gateway, [(span, key) for key in write_keys], 2,
                max(stamps)))
            observed.append((
                [(result.value, result.ts, ts) for result, ts in reads],
                stamps, laid, leaseholder_state(span)))
        per_key, batch = observed
        assert batch == per_key
        # The scenario means something: written keys that were read got
        # pushed above the read, the others kept the request timestamp.
        reads, stamps = batch[0], batch[1]
        for key, stamp in zip(write_keys, stamps):
            assert (stamp > reads[0][2]) == (key in read_keys)

    def test_results_come_back_in_request_order(self):
        bed, span = make_bed(splits=(3, 6))
        gateway = bed.gateway(HOME)
        order = [7, 0, 4, 1, 6, 3]  # ranges visited: c a b a c b
        outcomes = run(bed, bed.ds.read_batch(
            gateway, [(span, key) for key in order], gateway.clock.now()))
        assert [result.value for result, _ts in outcomes] == [
            f"v{key}" for key in order]

    def test_an_empty_batch_resolves_at_once(self):
        bed, _span = make_bed()
        gateway = bed.gateway(HOME)
        ts = gateway.clock.now()
        assert bed.ds.read_batch(gateway, [], ts).value == []
        assert bed.ds.write_batch(gateway, [], ts, 1, -1).value == []

    def test_a_range_token_means_its_span(self):
        """The token contract holds for batches: any Range of the span
        routes every key of the span."""
        bed, span = make_bed(splits=(4,))
        gateway = bed.gateway(HOME)
        child = span.descriptors[1].rng
        outcomes = run(bed, bed.ds.read_batch(
            gateway, [(child, 1), (child, 5)], gateway.clock.now()))
        assert [result.value for result, _ts in outcomes] == ["v1", "v5"]


class TestMessageBudget:
    def test_k_key_write_is_one_rpc_one_proposal_six_messages(self):
        k = 5
        bed, span = make_bed()
        rng = span.anchor
        assert len(rng.group.voters()) == 3 and len(rng.replicas) == 5
        gateway = bed.gateway(HOME)
        sent, calls = count_sends(bed.cluster), count_calls(bed.cluster)
        proposals_before = rng.group.commit_index
        stamps = run(bed, bed.ds.write_batch(
            gateway, [(span, key, f"w{key}") for key in range(k)],
            gateway.clock.now(), 9, anchor_node_id=gateway.node_id))
        bed.settle(100.0)  # the learners are a WAN hop away
        assert len(stamps) == k
        # One request carrying k keys (bytes_by_region_pair stays a
        # per-key count), one Raft entry, and its budget: 4 appends + 2
        # acks inside the quorum race.  No commit update: the followers
        # learn the commit index from the side-transport tick.
        assert calls == [k]
        assert rng.group.commit_index == proposals_before + 1
        entry = rng.group.leader.log[-1]
        assert type(entry.command) is BatchCommand
        assert [type(c) for c in entry.command.commands] == (
            [PutIntentCommand] * k)
        raft = [kind for kind, *_rest in sent
                if kind in ("_deliver_append", "_on_ack", "_learn_commit")]
        assert sorted(raft) == ["_deliver_append"] * 4 + ["_on_ack"] * 2
        # All five replicas applied all k, once they learn it committed.
        learn_commit(bed.sim, rng)
        for replica in rng.replicas.values():
            for key in range(k):
                intent = replica.store.intent_for(key)
                assert intent is not None and intent.txn_id == 9

    def test_a_batch_of_single_key_groups_is_todays_calls(self):
        """One key per range: every group takes ``DistSender.write``
        itself — a plain PutIntentCommand, payload 1."""
        bed, span = make_bed(splits=(2, 4))
        gateway = bed.gateway(HOME)
        calls = count_calls(bed.cluster)
        run(bed, bed.ds.write_batch(
            gateway, [(span, key, "w") for key in (0, 2, 4)],
            gateway.clock.now(), 9, anchor_node_id=gateway.node_id))
        assert calls == [1, 1, 1]
        for descriptor in span.descriptors:
            command = descriptor.rng.group.leader.log[-1].command
            assert type(command) is PutIntentCommand

    def test_reads_count_keys_and_pay_admission_per_key(self):
        bed, span = make_bed()
        install_admission(bed.cluster, AdmissionConfig(protections=False))
        gateway = bed.gateway(HOME)
        run(bed, bed.ds.read_batch(
            gateway, [(span, key) for key in range(4)],
            gateway.clock.now()))
        registry = bed.sim.obs.registry
        for name in ("kv.reads", "store.work_admitted"):
            assert sum(c.value for c in registry.instruments(name)) == 4


class TestSplitRace:
    """A split (or merge) landing between grouping and serving: the
    group is re-partitioned, not retried against a range it cannot fit."""

    def attempts(self, bed):
        return [span for span in bed.sim.obs.tracer.spans()
                if span.name == "rpc.attempt"]

    def test_split_repartitions_a_write_group(self):
        bed, span = make_bed()
        gateway = bed.gateway(HOME)
        future = bed.ds.write_batch(
            gateway, [(span, key, f"w{key}") for key in range(N_KEYS)],
            gateway.clock.now(), 9, anchor_node_id=gateway.node_id)
        # Grouped (one range, one group, already on the wire) — now the
        # range splits under it.
        bed.cluster.keyspace.split(span.descriptors[0], 5, trigger="test")
        stamps = run(bed, future)
        assert not any(isinstance(s, BaseException) for s in stamps)
        # One bounce, then one attempt per new owner: the group that
        # could never fit burned no retry budget.
        assert bed.sim.obs.registry.value("distsender.rpc_retries") == 1
        assert len(self.attempts(bed)) == 3
        learn_commit(bed.sim, *(d.rng for d in span.descriptors))
        for key in range(N_KEYS):
            owner = span.descriptor_for_key(key).rng
            for replica in owner.replicas.values():
                assert replica.store.intent_for(key).txn_id == 9
            assert owner.lock_table.holder_of(key).txn_id == 9
        assert bed.cluster.keyspace.violations() == []

    def test_split_repartitions_a_read_group(self):
        bed, span = make_bed()
        gateway = bed.gateway(HOME)
        future = bed.ds.read_batch(
            gateway, [(span, key) for key in range(N_KEYS)],
            gateway.clock.now())
        bed.cluster.keyspace.split(span.descriptors[0], 3, trigger="test")
        outcomes = run(bed, future)
        assert [result.value for result, _ts in outcomes] == [
            f"v{key}" for key in range(N_KEYS)]
        assert bed.sim.obs.registry.value("distsender.rpc_retries") == 1

    def test_merge_folds_two_groups_into_the_survivor(self):
        bed, span = make_bed(splits=(4,))
        gateway = bed.gateway(HOME)
        future = bed.ds.read_batch(
            gateway, [(span, key) for key in (0, 1, 5, 6)],
            gateway.clock.now())
        left, right = span.descriptors
        bed.cluster.keyspace.merge(left, right)
        outcomes = run(bed, future)
        assert [result.value for result, _ts in outcomes] == [
            "v0", "v1", "v5", "v6"]

    def test_a_mismatched_group_leaves_nothing_behind(self):
        """Served directly: a group the range does not own in full
        bounces before any key is read, written or latched."""
        bed, span = make_bed(splits=(4,))
        left = span.descriptors[0].rng
        ts = bed.gateway(HOME).clock.now()
        before = leaseholder_state(span)
        for handler in (
                left.serve_read([0, 5], ts, 1, None),
                left.serve_write([(0, "w"), (5, "w")], ts, 1, -1),
                left.serve_resolve_intent([0, 5], 1, None)):
            process = bed.sim.spawn(handler)
            bed.sim.run_until_future(settle_all(bed.sim, [process]))
            assert isinstance(process.error, RangeKeyMismatchError)
        assert leaseholder_state(span) == before


class TestNoLatchLeak:
    def test_deadlock_abort_on_key_3_of_5_latches_nothing(self):
        bed, span = make_bed()
        rng = span.anchor
        gateway = bed.gateway(HOME)
        ts = gateway.clock.now()
        # Transaction 100 holds key 2 and (says the wait graph) already
        # waits on 200: 200 waiting on 100 closes the cycle.
        run(bed, bed.ds.write(gateway, span, [(2, "held")], ts, 100,
                              anchor_node_id=gateway.node_id))
        bed.cluster.wait_graph.add_edge(100, 200)
        outcomes = run(bed, bed.ds.write_batch(
            gateway, [(span, key, "w") for key in range(5)],
            gateway.clock.now(), 200, anchor_node_id=gateway.node_id))
        assert all(isinstance(o, TransactionAbortedError) for o in outcomes)
        assert len({id(o) for o in outcomes}) == 1  # the group's one error
        for key in (0, 1, 3, 4):
            assert rng.lock_table.holder_of(key) is None
            assert rng.leaseholder_replica.store.intent_for(key) is None
        assert rng.lock_table.holder_of(2).txn_id == 100

    def test_wait_then_recheck_from_the_first_key(self):
        """While the batch waits on key 2, another writer takes key 0 —
        which the batch had already passed.  Nothing was latched for it,
        so that writer gets in, and the batch waits for it in turn."""
        bed, span = make_bed()
        rng = span.anchor
        gateway = bed.gateway(HOME)
        sim = bed.sim
        ts = gateway.clock.now()
        run(bed, bed.ds.write(gateway, span, [(2, "held")], ts, 100,
                              anchor_node_id=gateway.node_id))
        batch = bed.ds.write_batch(
            gateway, [(span, key, "w") for key in range(4)],
            gateway.clock.now(), 200, anchor_node_id=gateway.node_id)
        sim.run(until=sim.now + 10.0)  # parked on key 2
        assert not batch.done and rng.lock_table.holder_of(0) is None
        run(bed, bed.ds.write(gateway, span, [(0, "sneaked")],
                              gateway.clock.now(), 300,
                              anchor_node_id=gateway.node_id))
        run(bed, bed.ds.resolve_intent(gateway, span, [2], 100, ts))
        sim.run(until=sim.now + 10.0)  # woken, re-checked, parked on key 0
        assert not batch.done and rng.lock_table.holder_of(1) is None
        first = rng.lock_table.holder_of(0)
        run(bed, bed.ds.resolve_intent(gateway, span, [0], 300, first.ts))
        stamps = run(bed, batch)
        assert stamps[0] > first.ts  # written over the sneaked version
        store = rng.leaseholder_replica.store
        assert [store.intent_for(key).txn_id for key in range(4)] == [200] * 4

    def test_deadline_between_admission_units_latches_nothing(self):
        bed, span = make_bed()
        rng = span.anchor
        install_admission(bed.cluster, AdmissionConfig(
            protections=False, store_slots=1, store_service_ms=1.0))
        gateway = bed.gateway(HOME)
        # The request reaches the leaseholder ~0.5 ms in; five units of
        # 1 ms each cannot finish inside 3 ms.
        outcomes = run(bed, bed.ds.write_batch(
            gateway, [(span, key, "w") for key in range(5)],
            gateway.clock.now(), 200, anchor_node_id=gateway.node_id,
            deadline_ms=bed.sim.now + 3.0))
        assert all(isinstance(o, DeadlineExceededError) for o in outcomes)
        assert rng.lock_table.is_quiescent()
        assert all(rng.leaseholder_replica.store.intent_for(key) is None
                   for key in range(5))


class TestPartialFailure:
    def test_failure_is_per_group(self):
        """Two ranges, one of which has lost its quorum: its group's keys
        carry its error, the other group's keys their timestamps."""
        bed = KVTestBed(regions=REGIONS3)
        healthy, doomed = (
            provision_range(
                bed.cluster, zone_config_for_home(
                    home, bed.cluster.regions(), SurvivalGoal.ZONE),
                side_transport_interval_ms=100.0, proposal_timeout_ms=500.0)
            for home in (HOME, "europe-west2"))
        bed.settle()
        followers = [peer.node.node_id for peer in doomed.group.voters()
                     if peer.node.node_id != doomed.leaseholder_node_id]
        for node_id in followers:
            bed.cluster.network.kill_node(node_id)
        gateway = bed.gateway(HOME)
        items = [(healthy, "a", 1), (doomed, "x", 2), (healthy, "b", 3),
                 (doomed, "y", 4)]
        outcomes = run(bed, bed.ds.write_batch(
            gateway, items, gateway.clock.now(), 9,
            anchor_node_id=gateway.node_id))
        assert not isinstance(outcomes[0], BaseException)
        assert not isinstance(outcomes[2], BaseException)
        assert isinstance(outcomes[1], BaseException)
        assert outcomes[3] is outcomes[1]
        store = healthy.leaseholder_replica.store
        assert store.intent_for("a").txn_id == 9
        assert store.intent_for("b").txn_id == 9


class TestResolveGroups:
    """``resolve_intents``: one RPC and one Raft entry per owning range,
    for commit and abort alike."""

    def lay(self, bed, span, keys, txn_id=9):
        gateway = bed.gateway(HOME)
        stamps = run(bed, bed.ds.write_batch(
            gateway, [(span, key, f"w{key}") for key in keys],
            gateway.clock.now(), txn_id, anchor_node_id=gateway.node_id))
        return gateway, max(stamps)

    def test_one_rpc_and_one_entry_per_range(self):
        bed, span = make_bed(splits=(4,))
        keys = [0, 1, 2, 5, 6, 7]
        gateway, commit_ts = self.lay(bed, span, keys)
        calls = count_calls(bed.cluster)
        before = [d.rng.group.commit_index for d in span.descriptors]
        run(bed, bed.ds.resolve_intents(
            gateway, [(span, key) for key in keys], 9, commit_ts))
        learn_commit(bed.sim, *(d.rng for d in span.descriptors))
        assert calls == [3, 3]
        assert bed.sim.obs.registry.value("kv.resolve_batches") == 2
        for descriptor, index in zip(span.descriptors, before):
            rng = descriptor.rng
            assert rng.group.commit_index == index + 1
            command = rng.group.leader.log[-1].command
            assert type(command) is BatchCommand
            assert [type(c) for c in command.commands] == (
                [ResolveIntentCommand] * 3)
            assert rng.lock_table.is_quiescent()
        for key in keys:
            owner = span.descriptor_for_key(key).rng
            for replica in owner.replicas.values():
                assert replica.store.intent_for(key) is None
                assert replica.store.get(key, commit_ts).value == f"w{key}"

    def test_a_one_key_group_is_todays_call(self):
        bed, span = make_bed(splits=(4,))
        gateway, commit_ts = self.lay(bed, span, [0, 5])
        calls = count_calls(bed.cluster)
        run(bed, bed.ds.resolve_intents(
            gateway, [(span, 0), (span, 5)], 9, commit_ts))
        assert calls == [1, 1]
        assert bed.sim.obs.registry.value("kv.resolve_batches") == 0
        for descriptor in span.descriptors:
            command = descriptor.rng.group.leader.log[-1].command
            assert type(command) is ResolveIntentCommand

    def test_nothing_to_resolve_is_settled_at_once(self):
        bed, _span = make_bed()
        calls = count_calls(bed.cluster)
        spawned = []
        bed.sim.spawn = lambda *args, **kwargs: spawned.append(args)
        future = bed.ds.resolve_intents(bed.gateway(HOME), [], 9, None)
        assert future.done and future.value is None
        assert calls == [] and spawned == []

    def test_abort_removes_every_intent(self):
        bed, span = make_bed()
        keys = list(range(5))
        gateway, _ts = self.lay(bed, span, keys)
        before = span.anchor.group.commit_index
        run(bed, bed.ds.resolve_intents(
            gateway, [(span, key) for key in keys], 9, None))
        learn_commit(bed.sim, span.anchor)
        rng = span.anchor
        assert rng.group.commit_index == before + 1
        assert rng.lock_table.is_quiescent()
        for replica in rng.replicas.values():
            for key in keys:
                assert replica.store.intent_for(key) is None
                assert replica.store.get(
                    key, gateway.clock.now()).value == f"v{key}"

    def test_every_waiter_on_every_key_is_released(self):
        bed, span = make_bed()
        keys = list(range(4))
        gateway, commit_ts = self.lay(bed, span, keys)
        readers = [
            bed.ds.read(gateway, span, key, gateway.clock.now(), txn_id=50 + n)
            for n, key in enumerate(keys + keys)]  # two waiters per key
        bed.sim.run(until=bed.sim.now + 10.0)
        assert not any(reader.done for reader in readers)
        run(bed, bed.ds.resolve_intents(
            gateway, [(span, key) for key in keys], 9, commit_ts))
        outcomes = run(bed, settle_all(bed.sim, readers))
        assert [fut.value[0].value for fut in outcomes] == [
            f"w{key}" for key in keys + keys]
        assert span.anchor.lock_table.is_quiescent()

    def test_split_repartitions_a_resolve_group(self):
        bed, span = make_bed()
        keys = list(range(N_KEYS))
        gateway, commit_ts = self.lay(bed, span, keys)
        future = bed.ds.resolve_intents(
            gateway, [(span, key) for key in keys], 9, commit_ts)
        bed.cluster.keyspace.split(span.descriptors[0], 5, trigger="test")
        run(bed, future)
        # One bounce, then one per owner.
        assert bed.sim.obs.registry.value("distsender.rpc_retries") == 1
        learn_commit(bed.sim, *(d.rng for d in span.descriptors))
        for key in keys:
            owner = span.descriptor_for_key(key).rng
            assert owner.lock_table.holder_of(key) is None
            for replica in owner.replicas.values():
                assert replica.store.intent_for(key) is None

    def test_a_failed_group_rejects_the_whole_call(self):
        bed, span = make_bed()
        rng = span.anchor
        gateway, commit_ts = self.lay(bed, span, [0, 1])
        for peer in rng.group.voters():
            if peer.node.node_id != rng.leaseholder_node_id:
                bed.cluster.network.kill_node(peer.node.node_id)
        rng.group.proposal_timeout_ms = 200.0
        future = bed.ds.resolve_intents(
            gateway, [(span, 0), (span, 1)], 9, commit_ts)
        (settled,) = run(bed, settle_all(bed.sim, [future]))
        assert isinstance(settled.error, RangeUnavailableError)


class TestNoCyclicGarbage:
    def test_a_finished_batch_dies_by_refcount(self):
        bed, span = make_bed(splits=(3, 6))
        gateway = bed.gateway(HOME)
        gc.collect()
        flags = gc.get_debug()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            run(bed, bed.ds.read_batch(
                gateway, [(span, key) for key in range(N_KEYS)],
                gateway.clock.now()))
            stamps = run(bed, bed.ds.write_batch(
                gateway, [(span, key, "w") for key in range(N_KEYS)],
                gateway.clock.now(), 9, anchor_node_id=gateway.node_id))
            run(bed, bed.ds.resolve_intents(
                gateway, [(span, key) for key in range(N_KEYS)], 9,
                max(stamps)))
            gc.collect()
            found = [repr(obj)[:100] for obj in gc.garbage
                     if isinstance(obj, _Batch)
                     or "distsender" in getattr(obj, "__module__", "")]
            assert not found, found[:5]
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
            gc.enable()
