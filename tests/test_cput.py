"""Conditional puts: ``Transaction.write(..., expect_absent=True)`` and the
SQL INSERT built on it.

What a conditional put must be — one RPC, and one Raft entry only when
the key was absent — what "absent" is judged against (the key's newest
version at the intent's timestamp, behind every foreign intent, never the
read snapshot), what a failed one leaves behind (nothing), and the safety
half: a re-sent request meets its own intent and is not refused by it,
and a key the transaction wrote itself is read, then written.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConditionFailedError, UniqueViolationError
from repro.kv.commands import BatchCommand, PutIntentCommand
from repro.sim.clock import Timestamp
from repro.sim.core import settle_all
from repro.verify import HistoryRecorder, check

from .kv_util import REGIONS3, KVTestBed, learn_commit
from .sql_util import make_engine
from .test_kv_batch import count_calls
from .test_one_phase_commit import (FAR, HOME, commands_since, make_bed,
                                    versions)


def insert(rng, value, key="new", commit=False):
    def txn_fn(txn):
        yield from txn.write(rng, key, value, commit=commit,
                             expect_absent=True)
    return txn_fn


def assert_untouched(rng, key="new"):
    """A refused conditional put left nothing on any replica, once each
    has learned the commit index."""
    assert rng.lock_table.is_quiescent()
    learn_commit(rng.sim, rng)
    for replica in rng.replicas.values():
        assert replica.store.intent_for(key) is None


class TestOneRequest:
    def test_absent_key_is_one_rpc_and_an_ordinary_intent(self):
        """The put is still one request.  A home-region intent is
        pipelined, so the commit sends one more, the proof that it
        landed; the resolve follows behind the ack as before."""
        bed, rng = make_bed()
        calls = count_calls(bed.cluster)
        before = rng.group.commit_index
        txns = []

        def txn_fn(txn):
            txns.append(txn)
            yield from insert(rng, "mine")(txn)

        bed.run_txn(HOME, txn_fn)
        bed.settle(50.0)
        assert calls == [1, 1, 1]  # the put; its proof; the resolve
        put, _resolve = commands_since(rng, before)
        assert type(put) is PutIntentCommand
        assert txns[0].read_set == []
        assert versions(rng, "new") == [(put.ts, "mine")]

    def test_live_value_is_one_rpc_and_no_raft_entry(self):
        bed, rng = make_bed()
        calls = count_calls(bed.cluster)
        before = rng.group.commit_index
        breaker = bed.ds.breakers.for_node(rng.leaseholder_node_id)
        with pytest.raises(ConditionFailedError) as caught:
            bed.run_txn(HOME, insert(rng, "mine", key="k"))
        assert (caught.value.key, caught.value.existing) == ("k", 0)
        assert calls == [1]
        assert rng.group.commit_index == before
        assert_untouched(rng, "k")
        # Application-level: the node answered, and nobody tries again.
        assert breaker.consecutive_failures == 0
        assert bed.coord.stats.begun == 1
        assert bed.coord.stats.aborted_retries == 0

    def test_one_phase_when_it_is_the_whole_transaction(self):
        bed, rng = make_bed()
        calls = count_calls(bed.cluster)
        before = rng.group.commit_index
        bed.run_txn(HOME, insert(rng, "mine", commit=True))
        assert calls == [1]
        (command,) = commands_since(rng, before)
        assert type(command) is BatchCommand
        assert bed.coord.stats.one_phase_commits == 1
        assert_untouched(rng)

    def test_condition_off_is_the_ablation_only(self):
        bed, rng = make_bed()
        rng.check_condition = False
        bed.run_txn(HOME, insert(rng, "blind", key="k"))
        bed.settle(50.0)
        assert [value for _ts, value in versions(rng, "k")] == [0, "blind"]


class TestWhatAbsentIsJudgedAgainst:
    def test_value_inside_the_uncertainty_interval_fails_directly(self):
        bed, rng = make_bed()
        gateway = bed.gateway(HOME)
        ahead = Timestamp(gateway.clock.now().physical + 100.0)
        for replica in rng.replicas.values():
            replica.store.put_committed("new", ahead, "theirs")
        with pytest.raises(ConditionFailedError):
            bed.run_txn(HOME, insert(rng, "mine"))
        stats = bed.coord.stats
        assert (stats.uncertainty_restarts, stats.refreshes) == (0, 0)
        assert_untouched(rng)

    def test_value_committed_above_read_ts_fails(self):
        """The condition is the key's newest version, not the snapshot."""
        bed, rng = make_bed()

        def slow(txn):
            yield from txn.read(rng, "other")
            yield bed.sim.sleep(30.0)
            yield from txn.write(rng, "new", "late", expect_absent=True)

        late = bed.sim.spawn(bed.coord.run(bed.gateway(HOME), slow))
        bed.sim.run(until=bed.sim.now + 5.0)
        bed.run_txn(HOME, insert(rng, "early", commit=True))
        bed.sim.run_until_future(settle_all(bed.sim, [late]))
        assert isinstance(late.error, ConditionFailedError)
        assert late.error.existing == "early"
        assert bed.coord.stats.refreshes == 0
        bed.settle(50.0)
        assert_untouched(rng)

    @pytest.mark.parametrize("holder_commits", [True, False])
    def test_waits_out_a_foreign_intent(self, holder_commits):
        bed, rng = make_bed()
        gateway = bed.gateway(HOME)

        def holder():
            txn = bed.coord.begin(gateway)
            yield from txn.write(rng, "new", "theirs")
            yield bed.sim.sleep(20.0)
            if holder_commits:
                yield from txn.commit()
            else:
                yield from txn.rollback()

        bed.sim.spawn(holder())
        bed.sim.run(until=bed.sim.now + 5.0)
        waiter = bed.sim.spawn(bed.coord.run(gateway, insert(rng, "mine")))
        bed.sim.run_until_future(settle_all(bed.sim, [waiter]))
        bed.settle(50.0)
        if holder_commits:
            assert isinstance(waiter.error, ConditionFailedError)
            assert [v for _ts, v in versions(rng, "new")] == ["theirs"]
        else:
            assert waiter.error is None
            assert [v for _ts, v in versions(rng, "new")] == ["mine"]
        assert_untouched(rng)

    def test_a_tombstone_is_absent(self):
        bed, rng = make_bed()

        def delete(txn):
            yield from txn.delete(rng, "k", commit=True)

        bed.run_txn(HOME, delete)
        bed.run_txn(HOME, insert(rng, "again", key="k", commit=True))
        (_t0, v0), (t1, v1), (t2, v2) = versions(rng, "k")
        assert (v0, v1, v2) == (0, None, "again")
        assert t2 > t1


class TestResentRequest:
    """``_leaseholder_call`` re-sends on timeout: the second attempt of
    a conditional put meets the first one's intent — or, one-phase, its
    committed value — and must not be refused by its own write."""

    def lose_first_reply(self, commit, between=None):
        bed, rng = make_bed()
        network = bed.cluster.network

        def landed():
            store = rng.leaseholder_replica.store
            if commit:
                return bool(store.version_count("new"))
            return store.intent_for("new") is not None

        network.faults.set_loss(HOME, FAR, 1.0, bidirectional=False)
        before = rng.group.commit_index
        process = bed.sim.spawn(bed.coord.run(
            bed.gateway(FAR), insert(rng, "once", commit=commit)))
        while not landed():
            bed.sim.run(until=bed.sim.now + 5.0)
        if between is not None:
            between(bed, rng)
        network.faults.set_loss(HOME, FAR, 0.0, bidirectional=False)
        _result, commit_ts = bed.sim.run_until_future(process)
        owner = bed.ds.resolve(rng, "new")
        for group in {rng.group, owner.group}:
            for node_id in group.peers:
                if node_id != group.leader_node_id:
                    group.resync_peer(node_id)
        bed.settle(300.0)
        assert bed.sim.obs.registry.value("distsender.rpc_retries") >= 1
        assert bed.coord.stats.begun == 1
        for replica in owner.replicas.values():
            assert versions(owner, "new", replica) == [(commit_ts, "once")]
            assert replica.store.intent_for("new") is None
        assert owner.lock_table.is_quiescent()
        return bed, rng, before

    def test_intent_is_relaid_once_at_one_timestamp(self):
        self.lose_first_reply(commit=False)

    def test_one_phase_is_answered_from_the_record(self):
        _bed, rng, before = self.lose_first_reply(commit=True)
        # The value is live by now: only the record lets the re-send by.
        assert rng.group.commit_index == before + 1

    @pytest.mark.parametrize("commit", [False, True])
    def test_across_a_split(self, commit):
        def split(bed, rng):
            bed.cluster.keyspace.split(rng.descriptor, "new",
                                       trigger="test")
            assert bed.ds.resolve(rng, "new") is not rng

        bed, _rng, _before = self.lose_first_reply(commit, between=split)
        assert bed.cluster.keyspace.violations() == []


class TestOwnWrites:
    """The leaseholder counts the transaction's own intent as absent, so
    the coordinator sends no conditional put for a key in its write
    set: it reads, then writes."""

    def test_insert_after_delete(self):
        bed, rng = make_bed()
        calls = count_calls(bed.cluster)

        def txn_fn(txn):
            yield from txn.delete(rng, "k")
            del calls[:]
            yield from txn.write(rng, "k", "reborn", expect_absent=True)
            return list(calls)

        sent, _elapsed = bed.run_txn(HOME, txn_fn)
        assert sent == [1, 1]  # the read of its own tombstone, the write
        bed.settle(50.0)
        assert versions(rng, "k")[-1][1] == "reborn"

    def test_double_insert(self):
        bed, rng = make_bed()

        def txn_fn(txn):
            yield from txn.write(rng, "new", "first", expect_absent=True)
            yield from txn.write(rng, "new", "second", expect_absent=True)

        with pytest.raises(ConditionFailedError) as caught:
            bed.run_txn(HOME, txn_fn)
        assert caught.value.existing == "first"
        bed.settle(50.0)
        assert versions(rng, "new") == []
        assert_untouched(rng)

    def test_own_write_is_found_across_a_split(self):
        bed, rng = make_bed()

        def txn_fn(txn):
            yield from txn.write(rng, "new", "first")
            bed.cluster.keyspace.split(rng.descriptor, "new", trigger="test")
            yield from txn.write(rng, "new", "second", expect_absent=True)

        with pytest.raises(ConditionFailedError):
            bed.run_txn(HOME, txn_fn)

    def test_batch_with_a_repeated_key_goes_one_at_a_time(self):
        bed, rng = make_bed()

        def txn_fn(txn):
            yield from txn.write_batch(
                [(rng, "a", 1), (rng, "b", 2), (rng, "a", 3)],
                expect_absent=True)

        with pytest.raises(ConditionFailedError) as caught:
            bed.run_txn(HOME, txn_fn)
        assert (caught.value.key, caught.value.existing) == ("a", 1)


class TestBatch:
    def test_one_rpc_and_one_entry_per_range(self):
        bed, rng = make_bed()
        calls = count_calls(bed.cluster)
        before = rng.group.commit_index

        def txn_fn(txn):
            stamps = yield from txn.write_batch(
                [(rng, key, key.upper()) for key in "abc"],
                expect_absent=True)
            return stamps, list(calls)

        (stamps, sent), _elapsed = bed.run_txn(HOME, txn_fn)
        assert sent == [3]
        command = commands_since(rng, before)[0]
        assert [(c.key, c.ts) for c in command.commands] == list(
            zip("abc", stamps))

    def test_one_live_key_fails_the_group_and_latches_nothing(self):
        bed, rng = make_bed()
        before = rng.group.commit_index

        def txn_fn(txn):
            yield from txn.write_batch(
                [(rng, "a", 1), (rng, "k", 2), (rng, "b", 3)],
                expect_absent=True)

        with pytest.raises(ConditionFailedError) as caught:
            bed.run_txn(HOME, txn_fn)
        assert caught.value.key == "k"
        assert rng.group.commit_index == before
        for key in "akb":
            assert_untouched(rng, key)


class TestEpochOcc:
    """Epoch-OCC has no leaseholder-side evaluation to fold the check
    into: it reads (into the read set) and buffers, as before."""

    def test_condition_is_a_read_set_entry(self):
        bed, rng = make_bed(txn_protocol="epoch-occ")
        seen = {}

        def txn_fn(txn):
            yield from txn.write(rng, "new", "mine", expect_absent=True)
            seen["reads"] = [key for _span, key, _ts in txn.read_set]
            seen["buffer"] = list(txn.write_buffer.values())

        bed.sim.run_until_future(bed.sim.spawn(
            bed.coord.run(bed.gateway(HOME), txn_fn)))
        assert seen == {"reads": ["new"], "buffer": ["mine"]}

        def duplicate(txn):
            yield from txn.write_batch([(rng, "k", 1)], expect_absent=True)

        process = bed.sim.spawn(bed.coord.run(bed.gateway(HOME), duplicate))
        bed.sim.run_until_future(settle_all(bed.sim, [process]))
        assert isinstance(process.error, ConditionFailedError)


class TestRecorder:
    def test_sees_a_read_of_absent_then_the_write(self):
        bed, rng = make_bed()
        bed.coord.recorder = HistoryRecorder(bed.sim)
        bed.run_txn(HOME, insert(rng, "mine", commit=True))
        (txn,) = bed.coord.recorder.finalize().txns
        assert [(op.kind, op.value) for op in txn.ops] == [
            ("r", None), ("w", "mine")]
        assert txn.status == "committed"


# -- SQL -----------------------------------------------------------------


def sql_bed(unique=False):
    engine = make_engine()
    session = engine.connect("us-east1")
    session.execute('CREATE DATABASE d PRIMARY REGION "us-east1" '
                    'REGIONS "us-west1", "europe-west2"')
    session.execute("CREATE TABLE t (id int PRIMARY KEY, v string"
                    + (" UNIQUE" if unique else "") + ")")
    table = engine.catalog.database("d").table("t")
    rng = engine.coordinator.distsender.resolve(
        table.primary_index.partitions[""], (1,))
    return engine, session, rng


class TestSqlInsert:
    def test_insert_is_one_rpc_and_one_raft_entry(self):
        engine, session, rng = sql_bed()
        calls = count_calls(engine.cluster)
        before = rng.group.commit_index
        session.execute("INSERT INTO t (id, v) VALUES (1, 'a')")
        assert calls == [1]
        assert rng.group.commit_index == before + 1
        assert engine.coordinator.stats.one_phase_commits == 1

    def test_duplicate_is_one_rpc_no_entry_and_nothing_left(self):
        engine, session, rng = sql_bed()
        session.execute("INSERT INTO t (id, v) VALUES (1, 'a')")
        calls = count_calls(engine.cluster)
        before = rng.group.commit_index
        with pytest.raises(UniqueViolationError):
            session.execute("INSERT INTO t (id, v) VALUES (1, 'b')")
        assert calls == [1]
        assert rng.group.commit_index == before
        assert_untouched(rng, (1,))
        assert session.execute("SELECT v FROM t WHERE id = 1") == [
            {"v": "a"}]

    def test_multi_row_insert_is_one_rpc_and_one_entry(self):
        engine, session, rng = sql_bed()
        calls = count_calls(engine.cluster)
        before = rng.group.commit_index
        assert session.execute(
            "INSERT INTO t (id, v) VALUES (1, 'a'), (2, 'b'), (3, 'c')") == 3
        assert calls[0] == 3  # three keys, one request
        engine.cluster.sim.run(until=engine.cluster.sim.now + 50.0)
        put, resolve = commands_since(rng, before)
        assert [type(c) for c in put.commands] == [PutIntentCommand] * 3
        assert len(resolve.commands) == 3
        assert session.execute("SELECT v FROM t WHERE id = 2") == [
            {"v": "b"}]

    def test_multi_row_duplicate_writes_nothing(self):
        engine, session, rng = sql_bed()
        session.execute("INSERT INTO t (id, v) VALUES (2, 'b')")
        with pytest.raises(UniqueViolationError):
            session.execute(
                "INSERT INTO t (id, v) VALUES (1, 'a'), (2, 'x'), (3, 'c')")
        with pytest.raises(UniqueViolationError):
            session.execute(
                "INSERT INTO t (id, v) VALUES (4, 'a'), (4, 'b')")
        engine.cluster.sim.run(until=engine.cluster.sim.now + 50.0)
        assert session.execute("SELECT id FROM t") == [{"id": 2}]
        assert rng.lock_table.is_quiescent()

    def test_unique_index_entry_is_a_conditional_put(self):
        engine, session, _rng = sql_bed(unique=True)
        session.execute("INSERT INTO t (id, v) VALUES (1, 'a')")
        with pytest.raises(UniqueViolationError) as caught:
            session.execute("INSERT INTO t (id, v) VALUES (2, 'a')")
        assert "v" in caught.value.column
        session.execute("INSERT INTO t (id, v) VALUES (2, 'b')")
        # DELETE then INSERT of the same unique value in one transaction:
        # the entry is in the write set, so it is read, then written.
        session.execute("BEGIN")
        session.execute("DELETE FROM t WHERE id = 1")
        session.execute("INSERT INTO t (id, v) VALUES (3, 'a')")
        session.execute("COMMIT")
        assert session.execute("SELECT id FROM t WHERE v = 'a'") == [
            {"id": 3}]


# -- differential: conditional put vs read-then-write ---------------------


class ReadThenWrite:
    """What the executor did before: the reference the conditional put
    is compared against."""

    def __init__(self, txn):
        self._txn = txn

    def __getattr__(self, name):
        return getattr(self._txn, name)

    def write(self, rng, key, value, commit=False, expect_absent=False):
        if expect_absent:
            existing = yield from self._txn.read(rng, key)
            if existing is not None:
                raise ConditionFailedError(key, existing)
        return (yield from self._txn.write(rng, key, value, commit=commit))


STATEMENTS = st.lists(
    st.tuples(st.sampled_from(["insert", "upsert", "delete", "pair"]),
              st.integers(0, 3), st.integers(0, 3)),
    min_size=1, max_size=12)


def run_statements(statements, wrap):
    """Run ``statements`` one transaction each, alternating two
    gateways; returns what each ended in, the committed MVCC contents
    and the checker's verdict."""
    bed = KVTestBed(regions=REGIONS3)
    rng = bed.make_range(HOME)
    bed.settle()
    bed.coord.recorder = HistoryRecorder(bed.sim)
    outcomes = []
    for number, (kind, a, b) in enumerate(statements):
        def txn_fn(txn, kind=kind, a=a, b=b, value=f"s{number}"):
            txn = wrap(txn)
            if kind == "insert":
                yield from txn.write(rng, a, value, commit=True,
                                     expect_absent=True)
            elif kind == "upsert":
                yield from txn.write(rng, a, value, commit=True)
            elif kind == "delete":
                yield from txn.write(rng, a, None, commit=True)
            else:  # two inserts; the same key twice when a == b
                yield from txn.write(rng, a, value, expect_absent=True)
                yield from txn.write(rng, b, value + "'", commit=True,
                                     expect_absent=True)

        process = bed.sim.spawn(bed.coord.run(
            bed.gateway(REGIONS3[number % 2]), txn_fn))
        bed.sim.run_until_future(settle_all(bed.sim, [process]))
        outcomes.append(type(process.error).__name__)
    bed.settle()
    store = rng.leaseholder_replica.store
    contents = {key: [value for _ts, value in versions(rng, key)]
                for key in store.keys()}
    assert rng.lock_table.is_quiescent()
    report = check(bed.coord.recorder.finalize())
    return outcomes, contents, sorted(a.type for a in report.anomalies)


@settings(max_examples=25, deadline=None)
@given(STATEMENTS)
def test_conditional_put_matches_read_then_write(statements):
    assert run_statements(statements, lambda txn: txn) == \
        run_statements(statements, ReadThenWrite)
