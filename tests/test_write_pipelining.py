"""Transactional write pipelining: an intent whose leaseholder is in the
gateway's region is acknowledged once it is evaluated and proposed, and
the commit proves it (``DistSender.query_intents``, or the record request
on the anchor range).

What a pipelined write must be — answered before its entry commits, and
proven before its transaction does — who reads it (its own transaction,
after waiting out the entry: the pipeline stall), where its in-flight
entry lives (with its key across a split; never across a merge; kept
across a lease move, where the Raft group settles it), and the safety
half: a write lost with its Raft entry is a retry, never a commit.
"""

import pytest

from repro.errors import ConditionFailedError, TransactionRetryError
from repro.kv.commands import BatchCommand, SetTxnRecordCommand
from repro.kv.range import Range
from repro.placement.goals import SurvivalGoal
from repro.verify import VerifyHarness, check

from . import test_one_phase_commit as one_phase
from .test_kv_batch import count_calls
from .test_one_phase_commit import (FAR, HOME, blind, commands_since,
                                    make_bed, versions)

TXN = 7


def pipelined_write(bed, rng, key="k", value="v"):
    gateway = bed.gateway(HOME)
    return bed.ds.write(gateway, rng, [(key, value)], gateway.clock.now(),
                        TXN, -1, pipelined=True)


def prove(bed, *writes):
    """The proof of ``(token, key, value)`` writes, run to its outcome."""
    return bed.sim.run_until_future(
        bed.ds.query_intents(bed.gateway(HOME), list(writes), TXN))


def followers(rng):
    return [node_id for node_id in rng.group.peers
            if node_id != rng.leaseholder_node_id]


def spy_query_intents(bed):
    """Record the writes of every ``query_intents`` call."""
    calls = []
    query = bed.ds.query_intents

    def spying(gateway, writes, txn_id, **kwargs):
        calls.append([key for _token, key, _value in writes])
        return query(gateway, writes, txn_id, **kwargs)

    bed.ds.query_intents = spying
    return calls


class TestAcknowledgedAtEvaluation:
    def test_the_reply_precedes_the_entry_and_the_proof_follows_it(self):
        bed, rng = make_bed()
        before = rng.group.commit_index
        bed.sim.run_until_future(pipelined_write(bed, rng))
        acked_at = bed.sim.now
        proposal = rng.pipelined[(TXN, "k")]
        assert not proposal.done
        assert rng.group.commit_index == before
        landed = []
        proposal.add_callback(lambda _fut: landed.append(bed.sim.now))
        # Sent at the ack: the leaseholder waits the entry out first.
        assert prove(bed, (rng, "k", "v")) == [None]
        assert acked_at < landed[0] <= bed.sim.now
        assert rng.pipelined == {}
        assert rng.leaseholder_replica.store.intent_for("k").value == "v"

    def test_a_transaction_waits_for_evaluation_not_the_quorum(self):
        elapsed = {}
        for home in (HOME, FAR):  # FAR: the same writes, not pipelined
            bed, rng = make_bed()
            gateway = bed.gateway(home)
            start = {}

            def txn_fn(txn, bed=bed, rng=rng):
                start["at"] = bed.sim.now
                for key in ("k", "other"):
                    yield from txn.write(rng, key, "v")
                elapsed[home] = bed.sim.now - start["at"]

            bed.sim.run_until_future(bed.sim.spawn(
                bed.coord.run(gateway, txn_fn)))
            assert bed.coord.stats.pipelined_writes == (
                2 if home == HOME else 0)
        # A home write costs a LAN round trip, a remote one a WAN round
        # trip plus the quorum round.
        assert elapsed[HOME] < 2 * 2.0 < elapsed[FAR]


class TestReadYourPipelinedWrites:
    """The transaction's own read of a key with a write in flight waits
    for the entry (CRDB's pipeline stall) and sees the write."""

    @pytest.mark.parametrize("read", ["read", "read_batch", "locking_read"])
    def test_the_read_stalls_and_sees_the_write(self, read):
        bed, rng = make_bed()
        seen = []

        def txn_fn(txn):
            yield from txn.write(rng, "k", "new")
            assert not rng.pipelined[(txn.txn_id, "k")].done
            if read == "read_batch":
                value, _other = yield from txn.read_batch(
                    [(rng, "k"), (rng, "other")])
            else:
                value = yield from getattr(txn, read)(rng, "k")
            seen.append(value)

        bed.run_txn(HOME, txn_fn)
        stats = bed.coord.stats
        assert seen == ["new"]
        assert (stats.pipeline_stalls, stats.aborted_retries) == (1, 0)
        bed.settle(50.0)
        assert versions(rng, "k")[-1][1] == "new"

    def test_an_insert_after_an_update_finds_the_update(self):
        bed, rng = make_bed()

        def txn_fn(txn):
            yield from txn.write(rng, "new", "updated")
            yield from txn.write(rng, "new", "inserted", expect_absent=True)

        with pytest.raises(ConditionFailedError) as caught:
            bed.run_txn(HOME, txn_fn)
        assert caught.value.existing == "updated"
        assert bed.coord.stats.pipeline_stalls == 1

    def test_other_transactions_never_stall(self):
        bed, rng = make_bed()
        bed.sim.run_until_future(pipelined_write(bed, rng))
        gateway = bed.gateway(HOME)
        read = bed.ds.read(gateway, rng, "other", gateway.clock.now(),
                           txn_id=99)
        bed.sim.run_until_future(read)
        assert not rng.pipelined[(TXN, "k")].done
        assert bed.sim.obs.registry.counter("txn.pipeline_stalls").value == 0


class TestLostWrites:
    """An entry that never commits is found at the proof: the attempt
    retries, the retry commits, and no replica ever holds the lost
    attempt's value as a version."""

    @staticmethod
    def assert_only_the_retry_landed(bed, rng):
        bed.settle(300.0)
        for owner, key in ((rng, "k"), (rng, "other")):
            for replica in owner.replicas.values():
                values = [v for _ts, v in versions(owner, key, replica)]
                assert "attempt-1" not in values
            assert versions(owner, key)[-1][1] == "attempt-2"
        stats = bed.coord.stats
        assert (stats.committed, stats.aborted_retries,
                stats.async_write_failures) == (1, 1, 1)

    def test_a_cut_leader_times_the_entry_out_and_the_commit_retries(self):
        bed, rng = make_bed()
        faults = bed.cluster.network.faults
        leader, cut = rng.leaseholder_node_id, followers(rng)
        rng.group.proposal_timeout_ms = 100.0
        attempts = []

        def txn_fn(txn):
            attempts.append(txn.txn_id)
            for node_id in cut:
                if len(attempts) == 1:
                    faults.cut_link(leader, node_id)
                else:
                    faults.heal_link(leader, node_id)
                    rng.group.resync_peer(node_id)
            for key in ("k", "other"):
                yield from txn.write(rng, key, f"attempt-{len(attempts)}")

        bed.run_txn(HOME, txn_fn)
        assert len(attempts) == 2
        self.assert_only_the_retry_landed(bed, rng)

    def test_a_crashed_leader_loses_the_entry_to_the_failover(self):
        """The proof lands on the new leaseholder, which never saw the
        entry: the failover rejected its future."""
        bed, rng = make_bed(nodes_per_region=4)
        faults = bed.cluster.network.faults
        leader = rng.leaseholder_node_id
        # A home gateway the cut leaves alone: one holding no replica.
        gateway = next(node for node in bed.cluster.nodes_in_region(HOME)
                       if node.node_id not in rng.replicas)
        attempts = []

        def txn_fn(txn):
            attempts.append(txn.txn_id)
            if len(attempts) == 1:
                for node_id in followers(rng):
                    faults.cut_link(leader, node_id)
            for key in ("k", "other"):
                yield from txn.write(rng, key, f"attempt-{len(attempts)}")
            if len(attempts) == 1:
                bed.cluster.network.kill_node(leader)

        bed.sim.run_until_future(bed.sim.spawn(
            bed.coord.run(gateway, txn_fn)))
        assert rng.leaseholder_node_id != leader
        self.assert_only_the_retry_landed(bed, rng)

    def test_a_lost_write_read_back_is_a_retry_too(self):
        bed, rng = make_bed()
        faults = bed.cluster.network.faults
        leader = rng.leaseholder_node_id
        rng.group.proposal_timeout_ms = 100.0
        attempts = []

        def txn_fn(txn):
            attempts.append(txn.txn_id)
            for node_id in followers(rng):
                if len(attempts) == 1:
                    faults.cut_link(leader, node_id)
                else:
                    faults.heal_link(leader, node_id)
                    rng.group.resync_peer(node_id)
            yield from txn.write(rng, "k", f"attempt-{len(attempts)}")
            return (yield from txn.read(rng, "k"))

        result, _elapsed = bed.run_txn(HOME, txn_fn)
        assert result == "attempt-2"
        assert bed.coord.stats.async_write_failures == 1


class TestLeaseMoves:
    def test_the_proof_reads_the_replicated_intent_on_the_new_leaseholder(
            self):
        bed, rng = make_bed()

        def txn_fn(txn):
            yield from txn.write(rng, "k", "moved")
            yield bed.sim.sleep(50.0)  # replicated and applied everywhere
            rng.transfer_lease(followers(rng)[0])
            # The Raft group's future, settled: it moves with the lease.
            assert rng.pipelined[(txn.txn_id, "k")].done

        bed.run_txn(HOME, txn_fn)
        stats = bed.coord.stats
        assert (stats.aborted_retries, stats.async_write_failures) == (0, 0)
        bed.settle(50.0)
        assert versions(rng, "k")[-1][1] == "moved"

    @staticmethod
    def survive_a_crash(then):
        """Pipeline ``k``, let the entry reach every follower but no ack
        reach the leader, crash the leader, fail the lease over to a home
        follower (as another client's request would) and run
        ``then(txn)`` at once.  The new leaseholder holds the entry
        uncommitted; five voters make its re-drive wait for a remote
        ack, so ``then`` reaches it a WAN round trip before it applies.
        """
        bed, rng = make_bed(nodes_per_region=4, goal=SurvivalGoal.REGION)
        faults = bed.cluster.network.faults
        leader = rng.leaseholder_node_id
        gateway = next(node for node in bed.cluster.nodes_in_region(HOME)
                       if node.node_id not in rng.replicas)
        heir = next(node_id for node_id in followers(rng)
                    if rng.replicas[node_id].node.locality.region == HOME)
        # Re-sends the re-driven tail, which its holders then re-ack.
        rng.group.start_retransmission()

        def txn_fn(txn):
            for node_id in followers(rng):
                faults.cut_link(node_id, leader)  # the acks, not appends
            yield from txn.write(rng, "k", "mine")
            yield bed.sim.sleep(300.0)  # the WAN appends land
            assert not rng.pipelined[(txn.txn_id, "k")].done
            bed.cluster.network.kill_node(leader)
            rng.failover_lease(heir)
            return (yield from then(txn))

        result, _ts = bed.sim.run_until_future(bed.sim.spawn(
            bed.coord.run(gateway, txn_fn)))
        assert rng.leaseholder_node_id == heir
        stats = bed.coord.stats
        assert (stats.committed, stats.aborted_retries,
                stats.async_write_failures) == (1, 0, 0)
        bed.settle(300.0)
        assert versions(rng, "k")[-1][1] == "mine"
        return result, stats

    def test_a_read_after_a_failover_waits_for_the_surviving_entry(self):
        def read_back(txn):
            (rng, key), = txn.write_set.values()
            return (yield from txn.read(rng, key))

        result, stats = self.survive_a_crash(read_back)
        assert result == "mine"
        assert stats.pipeline_stalls == 1

    def test_a_proof_after_a_failover_waits_for_the_surviving_entry(self):
        def commit_at_once(txn):
            return "committed"
            yield  # pragma: no cover - a generator

        result, _stats = self.survive_a_crash(commit_at_once)
        assert result == "committed"

    def test_an_intent_holding_another_value_is_not_proof(self):
        """Only the value the transaction wrote last proves its write:
        an earlier write of the key, replicated, does not stand in for a
        later one that was lost."""
        bed, rng = make_bed()
        bed.sim.run_until_future(pipelined_write(bed, rng, value="first"))
        bed.settle(50.0)
        rng.transfer_lease(followers(rng)[0])
        (outcome,) = prove(bed, (rng, "k", "second"))
        assert isinstance(outcome, TransactionRetryError)
        assert prove(bed, (rng, "k", "first")) == [None]


class TestReshape:
    def test_the_in_flight_write_follows_its_key_across_a_split(self):
        bed, rng = make_bed()
        keyspace = bed.cluster.keyspace
        bed.sim.run_until_future(pipelined_write(bed, rng, key="other"))
        proposal = rng.pipelined[(TXN, "other")]
        keyspace.split(rng.descriptor, "other", trigger="test")
        child = bed.ds.resolve(rng, "other")
        assert child is not rng
        assert (rng.pipelined, child.pipelined) == (
            {}, {(TXN, "other"): proposal})
        assert not proposal.done
        assert prove(bed, (rng, "other", "v")) == [None]
        assert child.pipelined == {}
        assert keyspace.violations() == []

    def test_no_in_flight_write_crosses_a_merge(self):
        """Every pipelined write holds its key's lock until it is
        resolved, and a right side holding a lock cannot merge."""
        bed, rng = make_bed()
        keyspace = bed.cluster.keyspace
        keyspace.split(rng.descriptor, "other", trigger="test")
        child = bed.ds.resolve(rng, "other")
        bed.sim.run_until_future(pipelined_write(bed, rng, key="other"))
        assert not keyspace.can_merge(rng.descriptor, child.descriptor)
        bed.sim.run_until_future(bed.ds.resolve_intents(
            bed.gateway(HOME), [(rng, "other")], TXN, None))
        bed.settle(50.0)
        assert child.pipelined == {}
        keyspace.merge(rng.descriptor, child.descriptor)
        assert keyspace.violations() == []

    def test_a_split_between_write_and_read_still_stalls(self):
        bed, rng = make_bed()
        seen = []

        def txn_fn(txn):
            yield from txn.write(rng, "other", "new")
            bed.cluster.keyspace.split(rng.descriptor, "other",
                                       trigger="test")
            seen.append((yield from txn.read(rng, "other")))

        bed.run_txn(HOME, txn_fn)
        assert seen == ["new"]
        assert bed.coord.stats.pipeline_stalls == 1


#: A home range and a far one (``make``), and a transaction writing two
#: keys on the first and one on the second (``two_ranges``).
RECORD = one_phase.TestRecordResolvesItsRange()


class TestOneRequestPerRange:
    def test_the_anchor_proof_rides_in_the_record_request(self):
        bed, rng, far = RECORD.make()
        proofs = spy_query_intents(bed)
        before = rng.group.commit_index
        bed.run_txn(HOME, RECORD.two_ranges(rng, far))
        bed.settle(300.0)
        assert proofs == []  # k and other: proven by the record request
        assert bed.coord.stats.pipelined_writes == 2  # f is remote
        _put_k, _put_other, record = commands_since(rng, before)
        assert type(record) is BatchCommand
        assert type(record.commands[0]) is SetTxnRecordCommand

    def test_every_other_range_is_one_proof_request(self):
        bed, rng, far = RECORD.make()
        proofs = spy_query_intents(bed)
        calls = count_calls(bed.cluster)

        def txn_fn(txn):
            yield from txn.write(far, "f", "c")  # the anchor, remote
            yield from txn.write(rng, "k", "a")
            yield from txn.write(rng, "other", "b")

        bed.run_txn(HOME, txn_fn)
        assert proofs == [["k", "other"]]
        # f, k, other, one proof of two keys, the record, and the
        # asynchronous resolution of k and other.  A leaseholder call
        # sends its first attempt at the call, so the commit step sends
        # it before the transaction returns.  (An RPC whose attempts ran
        # in a process used to go out one event later, after the run had
        # stopped at the transaction's end.)
        assert calls == [1, 1, 1, 2, 1, 2]


class TestRewrites:
    """The proof asks for the value the transaction wrote last."""

    def test_an_awaited_rewrite_replaces_the_pipelined_write(self):
        bed, rng, far = RECORD.make()

        def txn_fn(txn):
            yield from txn.write(rng, "k", "first")
            # A batch with a remote range in it is not pipelined.
            yield from txn.write_batch([(rng, "k", "second"),
                                        (far, "f", "c")])

        bed.run_txn(HOME, txn_fn)
        stats = bed.coord.stats
        assert (stats.pipelined_writes, stats.aborted_retries,
                stats.async_write_failures) == (1, 0, 0)
        bed.settle(300.0)
        assert versions(rng, "k")[-1][1] == "second"

    def test_a_rewrite_across_a_split_is_one_write_to_prove(self):
        bed, rng = make_bed()
        proofs = spy_query_intents(bed)

        def txn_fn(txn):
            yield from txn.write(rng, "other", "first")
            bed.cluster.keyspace.split(rng.descriptor, "other",
                                       trigger="test")
            yield from txn.write(rng, "other", "second")

        bed.run_txn(HOME, txn_fn)
        stats = bed.coord.stats
        assert (stats.aborted_retries, stats.async_write_failures) == (0, 0)
        assert proofs == [["other"]]
        bed.settle(300.0)
        child = bed.ds.resolve(rng, "other")
        assert versions(child, "other")[-1][1] == "second"


class TestNeverPipelined:
    def test_a_one_phase_write(self):
        bed, rng = make_bed()
        bed.run_txn(HOME, blind(rng, "v"))
        stats = bed.coord.stats
        assert (stats.one_phase_commits, stats.pipelined_writes) == (1, 0)

    def test_a_write_to_a_remote_leaseholder(self):
        bed, rng = make_bed()
        proofs = spy_query_intents(bed)
        bed.run_txn(FAR, blind(rng, "v", commit=False))
        assert bed.coord.stats.pipelined_writes == 0
        assert proofs == []

    def test_an_epoch_occ_apply(self, monkeypatch):
        bed, rng = make_bed(txn_protocol="epoch-occ")
        asked = []
        serve = Range.serve_write

        def spying(self, *args, **kwargs):
            asked.append(kwargs.get("pipelined", False))
            return serve(self, *args, **kwargs)

        monkeypatch.setattr(Range, "serve_write", spying)

        def txn_fn(txn):
            yield from txn.write(rng, "k", "a")
            yield from txn.write(rng, "other", "b")

        bed.sim.run_until_future(bed.sim.spawn(
            bed.coord.run(bed.gateway(HOME), txn_fn)))
        assert asked and not any(asked)
        assert versions(rng, "k")[-1][1] == "a"


@pytest.mark.verify
@pytest.mark.parametrize("seed", range(5))
def test_the_probe_that_convicts_is_clean_with_the_proof_on(seed):
    """The ``pipeline-unproven`` lost-write schedule against the shipped
    commit: the proof finds the write missing and the attempt retries."""
    harness = VerifyHarness(seed)
    harness._init_keys()
    harness.sim.run(until=harness.sim.now + 600.0)
    harness.run_clients([harness.pipeline_probe()])
    harness.heal_and_settle()
    harness.recorder.final = harness._audit()
    report = check(harness.recorder.finalize())
    assert report.ok, report.render()
    stats = harness.coord.stats
    assert stats.async_write_failures >= 1
    assert stats.aborted_retries >= 1
