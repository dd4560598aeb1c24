"""One-phase commit: ``Transaction.write(..., commit=True)`` and the SQL
executor's ``canAutoCommit`` rule.

What a one-phase commit must be — one RPC and one Raft entry, never an
intent any replica exposes — when it must decline (a timestamp moved
under read spans), who may ask for it (an implicit single-row statement
whose write is provably last), and the safety half: a re-sent write
applies once, at one timestamp, across a lease failover and a split, and
a write whose fate nobody can learn is an ``AmbiguousCommitError``, never
a second run of the transaction body.
"""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import AmbiguousCommitError
from repro.kv.commands import (
    BatchCommand,
    PutIntentCommand,
    ResolveIntentCommand,
    SetTxnRecordCommand,
    TxnStatus,
)
from repro.kv.replica import Replica
from repro.sim.core import settle_all
from repro.verify import HistoryRecorder, VerifyHarness, check
from repro.verify.history import INDETERMINATE

from .kv_util import REGIONS3, KVTestBed
from .sql_util import make_engine
from .test_kv_batch import count_calls

HOME = "us-east1"
FAR = "europe-west2"


def make_bed(global_reads=False, **kwargs):
    bed = KVTestBed(regions=REGIONS3, **kwargs)
    rng = bed.make_range(HOME, global_reads=global_reads)
    rng.bulk_ingest([("k", 0), ("other", 0)],
                    rng.leaseholder_node.clock.now())
    bed.settle()
    return bed, rng


def commands_since(rng, index):
    return [entry.command for entry in rng.group.leader.log[index:]]


def versions(rng, key, replica=None):
    """``[(ts, value)]`` of ``key``'s committed versions, oldest first."""
    store = (replica or rng.leaseholder_replica).store
    history = store._data[key]
    return [(history.ts_at(i), history.values[i])
            for i in range(len(history.values))]


def rmw(rng, key="k", commit=True):
    def txn_fn(txn):
        value = yield from txn.read(rng, key)
        yield from txn.write(rng, key, (value or 0) + 1, commit=commit)
        return value
    return txn_fn


def blind(rng, value, key="k", commit=True):
    def txn_fn(txn):
        yield from txn.write(rng, key, value, commit=commit)
    return txn_fn


class TestOneConsensusRound:
    def test_rmw_is_one_write_rpc_and_one_raft_entry(self):
        bed, rng = make_bed()
        calls = count_calls(bed.cluster)
        before = rng.group.commit_index
        # Watch every replica at every apply: the intent is laid and
        # resolved inside one event, so none is ever exposed.
        apply, exposed = rng.group.apply_fn, []

        def watching(node, command):
            apply(node, command)
            if rng.replicas[node.node_id].store.intent_for("k") is not None:
                exposed.append(node.node_id)

        rng.group.apply_fn = watching
        _result, elapsed = bed.run_txn(HOME, rmw(rng))
        bed.settle(200.0)  # the learners are a WAN hop away
        assert calls == [1, 1]  # the read, and the write that commits
        (command,) = commands_since(rng, before)
        assert type(command) is BatchCommand
        assert [type(c) for c in command.commands] == [
            PutIntentCommand, SetTxnRecordCommand, ResolveIntentCommand]
        assert command.commands[1].status == TxnStatus.COMMITTED
        assert exposed == []
        assert rng.lock_table.is_quiescent()
        for replica in rng.replicas.values():
            assert replica.store.intent_for("k") is None
            assert versions(rng, "k", replica)[-1] == (
                command.commands[0].ts, 1)
        stats = bed.coord.stats
        assert (stats.one_phase_commits, stats.one_phase_fallbacks) == (1, 0)
        assert bed.sim.obs.registry.value("kv.resolve_batches") == 0
        # One consensus round after the read, not two.
        unmarked_bed, unmarked = make_bed()
        _result, two_phase = unmarked_bed.run_txn(HOME, rmw(unmarked,
                                                            commit=False))
        assert elapsed == pytest.approx(two_phase)  # the ack never waited
        unmarked_bed.settle(50.0)
        assert len(commands_since(unmarked, before)) == 2

    def test_commit_is_acknowledged_at_the_version_timestamp(self):
        bed, rng = make_bed()
        commit_ts, _elapsed = bed.do_write(HOME, rng, "k", "v")
        assert bed.coord.stats.one_phase_commits == 0  # do_write is unmarked
        gateway = bed.gateway(HOME)
        process = bed.sim.spawn(bed.coord.run(gateway, blind(rng, "w")))
        _result, commit_ts = bed.sim.run_until_future(process)
        assert versions(rng, "k")[-1] == (commit_ts, "w")

    def test_recorder_sees_the_write_then_one_commit(self):
        bed, rng = make_bed()
        seen = []

        class Recorder:
            def __getattr__(self, name):
                return lambda *args, **kwargs: seen.append(name)

        bed.coord.recorder = Recorder()
        bed.run_txn(HOME, rmw(rng))
        assert seen == ["on_begin", "on_read", "on_write", "on_commit"]


class TestFallback:
    """The leaseholder declines when evaluation moved the timestamp and
    the transaction has reads to refresh; a blind write just commits at
    the moved timestamp."""

    def bumped(self, with_read):
        """A transaction begins, (reads another key,) and then another
        transaction reads ``k`` above it: the timestamp cache bumps the
        write."""
        bed, rng = make_bed()
        gateway = bed.gateway(HOME)
        txn = bed.coord.begin(gateway)
        started = txn.write_ts

        def body():
            if with_read:
                yield from txn.read(rng, "other")
            yield bed.sim.sleep(5.0)
            yield from txn.write(rng, "k", "mine", commit=True)
            commit_ts = yield from txn.commit()
            return commit_ts

        process = bed.sim.spawn(body())
        bed.sim.run(until=bed.sim.now + 2.0)
        bed.do_read(HOME, rng, "k")  # above ``started``, below the write
        commit_ts = bed.sim.run_until_future(process)
        assert commit_ts > started
        return bed, rng, commit_ts

    def test_blind_write_commits_one_phase_at_the_bumped_timestamp(self):
        bed, rng, commit_ts = self.bumped(with_read=False)
        stats = bed.coord.stats
        assert (stats.one_phase_commits, stats.one_phase_fallbacks) == (1, 0)
        assert versions(rng, "k")[-1] == (commit_ts, "mine")
        assert type(rng.group.leader.log[-1].command) is BatchCommand

    def test_reader_falls_back_and_commits_through_a_refresh(self):
        bed, rng, commit_ts = self.bumped(with_read=True)
        stats = bed.coord.stats
        assert (stats.one_phase_commits, stats.one_phase_fallbacks) == (0, 1)
        assert stats.refreshes == 1 and stats.refresh_failures == 0
        bed.settle(50.0)
        assert [type(entry.command) for entry in rng.group.leader.log[-2:]
                ] == [PutIntentCommand, ResolveIntentCommand]
        assert versions(rng, "k")[-1] == (commit_ts, "mine")
        assert rng.lock_table.is_quiescent()

    def test_newer_value_under_a_read_retries_as_before(self):
        bed, rng = make_bed()
        gateway = bed.gateway(HOME)
        attempts = []

        def txn_fn(txn):
            attempts.append(txn.txn_id)
            value = yield from txn.read(rng, "k")
            if len(attempts) == 1:
                # Somebody else commits over what we read.
                yield bed.sim.spawn(bed.coord.run(gateway, blind(rng, 41)))
            yield from txn.write(rng, "k", value + 1, commit=True)

        bed.run_txn(HOME, txn_fn)
        stats = bed.coord.stats
        assert len(attempts) == 2 and stats.refresh_failures == 1
        assert stats.one_phase_fallbacks == 1
        assert versions(rng, "k")[-1][1] == 42
        bed.settle(50.0)
        assert rng.lock_table.is_quiescent()
        assert rng.leaseholder_replica.store.intent_for("k") is None


class TestGlobalWrite:
    def test_commit_waits_the_same_sim_ms(self):
        waits = []
        for commit in (False, True):
            bed, rng = make_bed(global_reads=True)
            _result, elapsed = bed.run_txn(HOME, blind(rng, "g",
                                                       commit=commit))
            stats = bed.coord.stats
            assert stats.one_phase_commits == int(commit)
            assert stats.commit_waits == 1
            waits.append((elapsed, stats.commit_wait_ms_total))
        assert waits[1] == pytest.approx(waits[0])
        assert waits[0][1] > 100.0  # a real future-time write


class TestWhoMayAsk:
    """The executor marks a write only when it is provably the last KV
    operation of an implicit transaction; the transaction layer ignores
    the mark under ``spanner_style_commit_wait`` and epoch-OCC."""

    SCHEMA = (
        "CREATE TABLE plain (k int PRIMARY KEY, v string)",
        "CREATE TABLE uniq (k int PRIMARY KEY, v string UNIQUE, w string)",
        "CREATE TABLE parent (k int PRIMARY KEY, v string)",
        "CREATE TABLE child (k int PRIMARY KEY, "
        "p int REFERENCES parent, v string)",
        "CREATE TABLE follower (k int PRIMARY KEY, p int, "
        "FOREIGN KEY (p) REFERENCES parent (k) ON UPDATE CASCADE)",
        "CREATE TABLE byrow (k int PRIMARY KEY, v string) "
        "LOCALITY REGIONAL BY ROW",
    )

    def engine(self, **kwargs):
        engine = make_engine(**kwargs)
        session = engine.connect(HOME)
        session.execute('CREATE DATABASE d PRIMARY REGION "us-east1" '
                        'REGIONS "us-west1", "europe-west2"')
        for ddl in self.SCHEMA:
            session.execute(ddl)
        for table in ("plain", "parent"):
            session.execute(f"INSERT INTO {table} (k, v) VALUES (1, 'a')")
            session.execute(f"INSERT INTO {table} (k, v) VALUES (2, 'b')")
        session.execute("INSERT INTO uniq (k, v, w) VALUES (1, 'a', 'a')")
        session.execute("INSERT INTO child (k, p, v) VALUES (1, 1, 'a')")
        session.execute("INSERT INTO follower (k, p) VALUES (1, 1)")
        session.execute("INSERT INTO byrow (k, v) VALUES (1, 'a')")
        return engine, session

    def one_phase(self, engine, session, sql):
        stats = engine.coordinator.stats
        before = stats.one_phase_commits + stats.one_phase_fallbacks
        session.execute(sql)
        return stats.one_phase_commits + stats.one_phase_fallbacks - before

    @pytest.mark.parametrize("sql, marked", [
        ("UPDATE plain SET v = 'x' WHERE k = 1", 1),
        ("INSERT INTO plain (k, v) VALUES (3, 'c')", 1),
        ("DELETE FROM plain WHERE k = 2", 1),
        ("UPDATE plain SET v = 'x' WHERE k = 99", 0),  # no row, no write
        ("UPDATE plain SET v = 'x' WHERE k IN (1, 2)", 0),
        ("UPDATE plain SET v = 'x'", 0),
        ("DELETE FROM plain", 0),
        ("INSERT INTO plain (k, v) VALUES (3, 'c'), (4, 'd')", 0),
        # Unique-index entries follow the row.
        ("INSERT INTO uniq (k, v, w) VALUES (2, 'b', 'b')", 0),
        ("UPDATE uniq SET v = 'z' WHERE k = 1", 0),
        ("UPDATE uniq SET w = 'z' WHERE k = 1", 0),
        ("DELETE FROM uniq WHERE k = 1", 0),
        # Foreign-key validation follows the row...
        ("INSERT INTO child (k, p, v) VALUES (2, 2, 'b')", 0),
        ("UPDATE child SET p = 2 WHERE k = 1", 0),
        # ...unless no referencing column changed.
        ("UPDATE child SET v = 'z' WHERE k = 1", 1),
        # A cascade to ``follower`` follows the row.
        ("UPDATE parent SET v = 'z' WHERE k = 1", 0),
        # Cross-region uniqueness checks follow the row.
        ("INSERT INTO byrow (k, v) VALUES (2, 'b')", 0),
        ("UPDATE byrow SET v = 'z' WHERE k = 1", 1),
    ])
    def test_can_auto_commit(self, sql, marked):
        engine, session = self.engine()
        assert self.one_phase(engine, session, sql) == marked

    def test_never_inside_an_explicit_transaction(self):
        engine, session = self.engine()
        assert self.one_phase(
            engine, session,
            "BEGIN; UPDATE plain SET v = 'x' WHERE k = 1; COMMIT") == 0
        assert session.execute("SELECT v FROM plain WHERE k = 1") == [
            {"v": "x"}]

    def test_never_inside_a_multi_statement_body(self):
        engine, session = self.engine()
        stats = engine.coordinator.stats
        before = stats.one_phase_commits

        def body(handle):
            yield from handle.execute("UPDATE plain SET v = 'x' WHERE k = 1")
            yield from handle.execute("UPDATE plain SET v = 'y' WHERE k = 2")

        sim = engine.cluster.sim
        sim.run_until_future(sim.spawn(session.run_txn_co(body)))
        assert stats.one_phase_commits == before

    def test_never_under_spanner_style_commit_wait(self):
        engine, session = self.engine()
        engine.coordinator.spanner_style_commit_wait = True
        assert self.one_phase(engine, session,
                              "UPDATE plain SET v = 'x' WHERE k = 1") == 0

    def test_epoch_occ_accepts_and_ignores_the_mark(self):
        engine, session = self.engine(txn_protocol="epoch-occ")
        assert self.one_phase(engine, session,
                              "UPDATE plain SET v = 'x' WHERE k = 1") == 0
        assert self.one_phase(engine, session,
                              "DELETE FROM plain WHERE k = 2") == 0
        assert session.execute("SELECT v FROM plain") == [{"v": "x"}]


class TestAtMostOnce:
    """A one-phase write whose reply was lost is re-sent; the commit
    record in its Raft entry keeps the re-send from landing again."""

    def lose_first_reply(self, between=None):
        """Run one far-region one-phase write whose first reply the
        fault plane drops; ``between(bed, rng)`` runs after the first
        attempt applied and before the re-send is let through."""
        bed, rng = make_bed()
        network = bed.cluster.network
        gateway = bed.gateway(FAR)
        runs = []

        def txn_fn(txn):
            runs.append(txn.txn_id)
            yield from txn.write(rng, "k", "once", commit=True)

        network.faults.set_loss(HOME, FAR, 1.0, bidirectional=False)
        before = rng.group.commit_index
        process = bed.sim.spawn(bed.coord.run(gateway, txn_fn))
        while versions(rng, "k")[-1][1] != "once":
            bed.sim.run(until=bed.sim.now + 5.0)
        applied = versions(rng, "k")
        if between is not None:
            between(bed, rng)
        network.faults.set_loss(HOME, FAR, 0.0, bidirectional=False)
        _result, commit_ts = bed.sim.run_until_future(process)
        owner = bed.ds.resolve(rng, "k")
        # The far learner sat behind the lossy link (no retransmission
        # on this bed): catch it up before comparing replicas.
        for group in {rng.group, owner.group}:
            for node_id in group.peers:
                if node_id != group.leader_node_id:
                    group.resync_peer(node_id)
        bed.settle(300.0)
        # It really was re-sent.
        assert bed.sim.obs.registry.value("distsender.rpc_retries") >= 1
        assert runs == [1]
        for replica in owner.replicas.values():
            assert versions(owner, "k", replica) == applied
            assert replica.store.intent_for("k") is None
        assert commit_ts == applied[-1][0]
        assert owner.lock_table.is_quiescent()
        assert bed.coord.stats.one_phase_commits == 1
        return bed, rng, before

    def test_resent_write_applies_once_at_one_timestamp(self):
        _bed, rng, before = self.lose_first_reply()
        # Answered from the record: the re-send proposed nothing.
        assert rng.group.commit_index == before + 1

    def test_across_a_lease_failover(self):
        def fail_over(bed, rng):
            old = rng.leaseholder_node_id
            bed.settle(50.0)  # followers apply the entry
            rng.failover_lease(next(
                peer.node.node_id for peer in rng.group.voters()
                if peer.node.node_id != old))
            assert rng.leaseholder_node_id != old

        self.lose_first_reply(between=fail_over)

    def test_across_a_split(self):
        def split(bed, rng):
            bed.cluster.keyspace.split(rng.descriptor, "k", trigger="test")
            assert bed.ds.resolve(rng, "k") is not rng

        bed, rng, _before = self.lose_first_reply(between=split)
        child = bed.ds.resolve(rng, "k")
        assert child.group.commit_index == 0  # the child proposed nothing
        assert bed.cluster.keyspace.violations() == []

    def test_a_second_entry_is_dropped_at_apply(self):
        """Two attempts in the Raft pipeline at once (the first outlived
        its RPC timeout): both entries commit, one applies."""
        bed, rng = make_bed()
        ts = bed.gateway(HOME).clock.now()
        first, second = (
            bed.sim.spawn(rng.serve_write([("k", "once")], ts, 7, -1,
                                          commit=True, can_forward=True))
            for _ in range(2))
        bed.sim.run_until_future(settle_all(bed.sim, [first, second]))
        bed.settle(300.0)
        assert first.value == second.value  # one timestamp, both told
        assert rng.lock_table.is_quiescent()
        for replica in rng.replicas.values():
            assert versions(rng, "k", replica)[1:] == [
                (first.value[0], "once")]

    def test_every_reply_lost_is_recovered_from_the_record(self):
        bed, rng = make_bed()
        runs = []

        def txn_fn(txn):
            runs.append(txn.txn_id)
            yield from txn.write(rng, "k", "once", commit=True)

        bed.cluster.network.faults.set_loss(HOME, FAR, 1.0,
                                            bidirectional=False)
        _result, commit_ts = bed.sim.run_until_future(bed.sim.spawn(
            bed.coord.run(bed.gateway(FAR), txn_fn)))
        assert runs == [1]
        assert versions(rng, "k")[1:] == [(commit_ts, "once")]
        assert bed.coord.stats.ambiguous_commits == 0

    def test_unknowable_outcome_is_ambiguous_and_never_rerun(self):
        bed, rng = make_bed()
        runs = []

        def txn_fn(txn):
            runs.append(txn.txn_id)
            yield from txn.write(rng, "k", "lost", commit=True)

        # Every request dies in flight: nothing applies, nothing proves
        # that nothing will.
        bed.cluster.network.faults.set_loss(FAR, HOME, 1.0,
                                            bidirectional=False)
        process = bed.sim.spawn(bed.coord.run(bed.gateway(FAR), txn_fn))
        bed.sim.run_until_future(settle_all(bed.sim, [process]))
        assert isinstance(process.error, AmbiguousCommitError)
        assert runs == [1]
        assert (bed.sim.obs.registry.value("distsender.rpc_retries")
                == bed.ds.RPC_MAX_ATTEMPTS)
        assert bed.coord.stats.ambiguous_commits == 1
        assert bed.cluster.txn_registry[1].status == TxnStatus.ABORTED

    def test_a_request_that_never_left_is_simply_retried(self):
        """Connection refused is not doubt: the body may run again."""
        bed, rng = make_bed()
        faults = bed.cluster.network.faults
        runs = []

        def txn_fn(txn):
            runs.append(txn.txn_id)
            if len(runs) == 2:
                faults.heal_link(FAR, HOME)
            yield from txn.write(rng, "k", "late", commit=True)

        faults.cut_link(FAR, HOME)
        bed.run_txn(FAR, txn_fn)
        assert len(runs) >= 2  # (the tripped breaker refuses a few more)
        assert [value for _ts, value in versions(rng, "k")[1:]] == ["late"]
        assert bed.coord.stats.ambiguous_commits == 0


class TestRecordResolvesItsRange:
    """A multi-range commit's record entry resolves the anchor range's
    intents itself (CRDB's ``EndTxn``): one entry where a record and a
    resolve were two, and the locks gone before the client hears."""

    def make(self, **kwargs):
        bed, rng = make_bed(**kwargs)
        far = bed.make_range(FAR)
        far.bulk_ingest([("f", 0)], far.leaseholder_node.clock.now())
        bed.settle()
        return bed, rng, far

    @staticmethod
    def two_ranges(rng, far, fail=None):
        def txn_fn(txn):
            yield from txn.write(rng, "k", "a")
            yield from txn.write(rng, "other", "b")
            yield from txn.write(far, "f", "c")
            if fail is not None:
                raise fail
        return txn_fn

    def test_a_lost_record_is_recorded_indeterminate(self):
        """A record write that never arrives leaves the commit in doubt.
        The recorder hears it when the client does: indeterminate at the
        commit timestamp it may have applied at, ended at that instant
        (``finalize``'s fallback for a transaction never acknowledged
        sets neither)."""
        bed, rng, far = self.make()
        recorder = bed.coord.recorder = HistoryRecorder(bed.sim)
        txns, heard = [], []

        def txn_fn(txn):
            txns.append(txn)
            yield from txn.write(rng, "k", "a")  # the anchor, at HOME
            yield from txn.write(far, "f", "c")
            # From here on every request from FAR to HOME dies in flight.
            bed.cluster.network.faults.set_loss(FAR, HOME, 1.0,
                                                bidirectional=False)

        def client():
            try:
                yield from bed.coord.run(bed.gateway(FAR), txn_fn)
            except AmbiguousCommitError:
                heard.append(bed.sim.now)

        bed.sim.run_until_future(bed.sim.spawn(client()))
        assert bed.coord.stats.ambiguous_commits == 1
        (txn,), (at,) = txns, heard
        (record,) = recorder.finalize().txns
        assert record.status == INDETERMINATE
        assert record.commit_ts is not None
        assert record.commit_ts == txn.commit_ts
        assert record.begin_ms < record.end_ms == at

    def test_record_and_local_resolves_are_one_entry(self):
        bed, rng, far = self.make()
        calls = count_calls(bed.cluster)
        before, far_before = rng.group.commit_index, far.group.commit_index
        bed.run_txn(HOME, self.two_ranges(rng, far))
        # Acknowledged: the anchor's locks are gone, nothing else ran yet.
        assert rng.lock_table.is_quiescent()
        assert rng.leaseholder_replica.store.intent_for("k") is None
        assert far.leaseholder_replica.store.intent_for("f") is not None
        bed.settle(300.0)
        assert calls == [1, 1, 1, 1, 1]  # 3 writes, the record, far's resolve
        _put_k, _put_other, record = commands_since(rng, before)
        assert [type(c) for c in record.commands] == [
            SetTxnRecordCommand, ResolveIntentCommand, ResolveIntentCommand]
        assert record.commands[0].status == TxnStatus.COMMITTED
        assert [c.key for c in record.commands[1:]] == ["k", "other"]
        _put_f, resolve_f = commands_since(far, far_before)
        assert type(resolve_f) is ResolveIntentCommand
        commit_ts = record.commands[0].commit_ts
        for owner, key, value in ((rng, "k", "a"), (rng, "other", "b"),
                                  (far, "f", "c")):
            for replica in owner.replicas.values():
                assert replica.store.intent_for(key) is None
                assert versions(owner, key, replica)[-1] == (commit_ts, value)
        assert far.lock_table.is_quiescent()

    def test_waiters_on_the_anchor_are_released_at_apply(self):
        bed, rng, far = self.make()
        gateway = bed.gateway(HOME)
        reads = []

        def txn_fn(txn):
            yield from self.two_ranges(rng, far)(txn)
            reads.append(bed.ds.read(gateway, rng, "k", gateway.clock.now(),
                                     txn_id=99))
            yield bed.sim.sleep(5.0)
            assert not reads[0].done  # queued behind the intent

        bed.run_txn(HOME, txn_fn)
        assert reads[0].done and reads[0].value[0].value == "a"

    def test_a_split_before_apply_still_lands_every_resolve(self):
        bed, rng, far = self.make()
        propose = rng._propose

        def split_behind_the_record(command, span=None):
            future = propose(command, span=span)
            if (type(command) is BatchCommand and
                    type(command.commands[0]) is SetTxnRecordCommand):
                bed.cluster.keyspace.split(rng.descriptor, "other",
                                           trigger="test")
            return future

        rng._propose = split_behind_the_record
        bed.run_txn(HOME, self.two_ranges(rng, far))
        bed.settle(300.0)
        child = bed.ds.resolve(rng, "other")
        assert child is not rng
        for owner, key, value in ((rng, "k", "a"), (child, "other", "b")):
            assert owner.lock_table.is_quiescent()
            for replica in owner.replicas.values():
                assert replica.store.intent_for(key) is None
                assert versions(owner, key, replica)[-1][1] == value
        assert bed.cluster.keyspace.violations() == []

    def test_a_resent_record_entry_applies_once(self):
        bed, rng, far = self.make()
        faults = bed.cluster.network.faults

        def txn_fn(txn):
            yield from self.two_ranges(rng, far)(txn)
            faults.set_loss(HOME, FAR, 1.0, bidirectional=False)

        process = bed.sim.spawn(bed.coord.run(bed.gateway(FAR), txn_fn))
        while rng.leaseholder_replica.committed(1) is None:
            bed.sim.run(until=bed.sim.now + 5.0)
        applied = versions(rng, "k")
        faults.set_loss(HOME, FAR, 0.0, bidirectional=False)
        _result, commit_ts = bed.sim.run_until_future(process)
        bed.settle(300.0)
        assert bed.sim.obs.registry.value("distsender.rpc_retries") >= 1
        assert versions(rng, "k") == applied
        assert applied[-1] == (commit_ts, "a")
        assert versions(far, "f")[-1] == (commit_ts, "c")
        assert rng.lock_table.is_quiescent()

    def test_spanner_style_commit_wait_still_holds_the_locks(self):
        bed, rng, far = self.make(spanner_style_commit_wait=True)
        before = rng.group.commit_index
        bed.run_txn(HOME, self.two_ranges(rng, far))
        assert not rng.lock_table.is_quiescent()  # resolved behind the ack
        bed.settle(300.0)
        _put_k, _put_other, record, resolve = commands_since(rng, before)
        assert type(record) is SetTxnRecordCommand
        assert [c.key for c in resolve.commands] == ["k", "other"]
        assert rng.lock_table.is_quiescent()

    def test_rollback_is_symmetric(self):
        bed, rng, far = self.make()
        before = rng.group.commit_index
        with pytest.raises(ZeroDivisionError):
            bed.run_txn(HOME, self.two_ranges(rng, far,
                                              fail=ZeroDivisionError()))
        bed.settle(300.0)
        _put_k, _put_other, record = commands_since(rng, before)
        assert record.commands[0].status == TxnStatus.ABORTED
        assert [(c.key, c.commit_ts) for c in record.commands[1:]] == [
            ("k", None), ("other", None)]
        for owner, key in ((rng, "k"), (rng, "other"), (far, "f")):
            assert owner.lock_table.is_quiescent()
            for replica in owner.replicas.values():
                assert replica.store.intent_for(key) is None
                assert len(versions(owner, key, replica)) == 1

    def test_a_commit_given_up_on_takes_no_effect_when_it_lands(self):
        """The record's proposal times out with the entry still in the
        log: the outcome is in doubt, the transaction's other intents
        are aborted by pushes — so when a healed partition commits the
        entry after all, it must not commit the anchor's."""
        bed, rng, far = self.make()
        faults = bed.cluster.network.faults
        leader = rng.leaseholder_node_id
        followers = [p.node.node_id for p in rng.group.peers.values()
                     if p.node.node_id != leader]

        def txn_fn(txn):
            yield from self.two_ranges(rng, far)(txn)
            rng.group.proposal_timeout_ms = 100.0
            for node_id in followers:
                faults.cut_link(leader, node_id)

        process = bed.sim.spawn(bed.coord.run(bed.gateway(HOME), txn_fn))
        bed.sim.run_until_future(settle_all(bed.sim, [process]))
        assert isinstance(process.error, AmbiguousCommitError)
        assert bed.cluster.txn_registry[1].status == TxnStatus.ABORTED
        for node_id in followers:
            faults.heal_link(leader, node_id)
            rng.group.resync_peer(node_id)
        bed.settle(300.0)
        record = rng.group.leader.log[-1].command
        assert record.commands[0].status == TxnStatus.COMMITTED  # it landed
        for replica in rng.replicas.values():
            assert replica.committed(1) is None
            assert len(versions(rng, "k", replica)) == 1
        # Whoever runs into the orphans pushes them away, on both ranges.
        for owner, key in ((rng, "k"), (far, "f")):
            value, _elapsed = bed.do_read(HOME, owner, key)
            assert value == 0


class TestCommitRecordLifetime:
    def test_records_expire_by_commit_timestamp(self):
        bed, rng = make_bed()
        bed.run_txn(HOME, blind(rng, "a"))
        replica = rng.leaseholder_replica
        assert [r.status for r in replica.txn_records.values()] == [
            TxnStatus.COMMITTED]
        bed.settle(Replica.COMMITTED_RECORD_TTL_MS / 2)
        bed.run_txn(HOME, blind(rng, "b"))
        assert len(replica.txn_records) == 2
        bed.settle(Replica.COMMITTED_RECORD_TTL_MS)
        bed.run_txn(HOME, blind(rng, "c"))
        bed.settle(300.0)
        for replica in rng.replicas.values():
            assert list(replica.txn_records) == [3]
            assert len(replica._committed) == 1


class TestCleanupFailures:
    """Nobody waits on the intent cleanup: a failure that leaves
    recoverable orphans is counted, anything else stops the run."""

    def commit_then_fail_cleanup(self, break_cleanup):
        """The write is pipelined: its entry is let commit before the
        cleanup is broken.  Broken earlier, the write itself is lost and
        the commit's proof refuses to commit — a retry, not a cleanup
        failure."""
        bed, rng = make_bed()

        def txn_fn(txn):
            yield from txn.write(rng, "k", "v")
            yield bed.sim.sleep(20.0)
            break_cleanup(bed, rng)

        bed.run_txn(HOME, txn_fn)
        return bed

    def test_lost_quorum_is_counted(self):
        """The proof needs no quorum — the leaseholder holds the intent —
        so the commit goes through, and only the resolve behind the ack
        finds the quorum gone."""
        def lose_quorum(bed, rng):
            rng.group.proposal_timeout_ms = 200.0
            for peer in rng.group.voters():
                if peer.node.node_id != rng.leaseholder_node_id:
                    bed.cluster.network.kill_node(peer.node.node_id)

        bed = self.commit_then_fail_cleanup(lose_quorum)
        bed.settle(1000.0)  # does not raise
        counter = bed.sim.obs.registry.counter(
            "txn.cleanup_failures", error="RangeUnavailableError")
        assert counter.value == 1
        stats = bed.coord.stats
        assert (stats.pipelined_writes, stats.async_write_failures) == (1, 0)

    def test_a_programming_error_stops_the_run(self, monkeypatch):
        def break_serving(bed, rng):
            def broken(*args, **kwargs):
                raise TypeError("not a transport failure")
                yield
            monkeypatch.setattr(type(rng), "serve_resolve_intent", broken)

        bed = self.commit_then_fail_cleanup(break_serving)
        with pytest.raises(TypeError, match="not a transport failure"):
            bed.settle(1000.0)


class _Unmarked:
    """A transaction whose writes never carry the commit."""

    def __init__(self, txn):
        self._txn = txn

    def write(self, rng, key, value, commit=False):
        return self._txn.write(rng, key, value)

    def __getattr__(self, name):
        return getattr(self._txn, name)


ACTIONS = st.sampled_from(["read", "write", "rmw", "append"])
PLANS = st.lists(
    st.tuples(st.integers(0, 2),  # the client's region
              st.lists(st.tuples(st.integers(0, 5), ACTIONS),
                       min_size=1, max_size=3)),
    min_size=1, max_size=8)


def untagged(value):
    """A written value without the ``@attempt`` tag that wrote it."""
    if isinstance(value, list):
        return [untagged(item) for item in value]
    return value.split("@")[0] if isinstance(value, str) else value


class TestMarksChangeNothingButTheCost:
    @settings(max_examples=8, deadline=None)
    @given(plans=PLANS)
    # A retried attempt once rewrote its first attempt's value, which
    # the checker (rightly) cannot tell apart: duplicate-write and G1a.
    @example(plans=[(0, [(2, "write")]), (0, [(2, "write"), (2, "read")])])
    def test_same_contents_and_same_verdict_without_the_marks(self, plans):
        outcomes = []
        for marked in (True, False):
            # Every attempt writes values of its own, as the verify
            # generator's do; the marks may change how many there are.
            attempts = itertools.count()
            harness = VerifyHarness(seed=3)
            harness._init_keys()
            harness.sim.run(until=harness.sim.now + 600.0)
            keys = [k for k in harness.keys if k[0].name != "reg-eu"]
            for number, (region, steps) in enumerate(plans):
                gateway = harness.cluster.gateway_for_region(
                    harness.regions[region])

                def txn_fn(txn, steps=steps, number=number):
                    if not marked:
                        txn = _Unmarked(txn)
                    attempt = next(attempts)
                    for step, (index, action) in enumerate(steps, 1):
                        table, key, kind = keys[index]
                        value = f"p{number}:{step}@{attempt}"
                        if action == "read":
                            yield from txn.read(table, key)
                            continue
                        if kind == "list":
                            current = yield from txn.read(table, key)
                            value = list(current or []) + [value]
                        elif action == "rmw":
                            yield from txn.read(table, key)
                        yield from txn.write(table, key, value,
                                             commit=step == len(steps))

                harness.run_clients([harness.attempt(
                    gateway, txn_fn, label=f"client-{region}")])
            harness.heal_and_settle()
            harness.recorder.final = harness._audit()
            report = check(harness.recorder.finalize())
            contents = {
                f"{table.name}/{key}": [
                    untagged(value) for _ts, value in versions(table, key)]
                for table, key, _kind in keys}
            outcomes.append((contents, report.ok,
                             sorted(a.type for a in report.anomalies)))
            if marked:
                stats = harness.coord.stats
                single = sum(
                    1 for _region, steps in plans
                    if steps[-1][1] != "read"
                    and all(a == "read" for _i, a in steps[:-1]))
                assert (stats.one_phase_commits
                        + stats.one_phase_fallbacks) >= single
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1]
