"""The CRDB-style transaction protocol (paper §5, §6).

Serializable timestamp-based MVCC transactions with write intents, an
uncertainty interval and read refreshes, lock-table interaction through
the KV layer, and commit-wait (CRDB-style concurrent with intent
resolution, or Spanner-style holding locks, per the coordinator's
ablation flag).  What a commit costs in consensus rounds:

* read-only — none;
* **one-phase** — a transaction whose final operation is its only write
  (``write(..., commit=True)``: every auto-commit single-row statement)
  commits inside that write's Raft entry, intent, commit record and
  resolution together; nothing is left to resolve;
* single-range — no record write (the parallel-commits latency
  profile): the client is acknowledged after the last intent, and one
  resolve entry follows in the background;
* multi-range — a commit record on the anchor range, whose entry also
  resolves that range's intents (CRDB's ``EndTxn``), then one resolve
  entry per other range.

And in requests before the commit: a write is one, a conditional put
(``write(..., expect_absent=True)``: SQL INSERT, unique-index entries)
is one too — the leaseholder judges "absent" where it lays the intent.
An intent whose leaseholder is in the gateway's region is *pipelined*:
the client waits for its evaluation, not its consensus round, and the
commit proves every such write with one request per range, concurrent
with the refresh (the anchor's proof rides in the record request).  A
remote one is not: its proof would cost a WAN round trip to save a
local quorum round.

The timestamp rules:

* a transaction starts with read and provisional-commit timestamps from
  the gateway HLC;
* reads carry an *uncertainty interval* ``(read_ts, read_ts +
  max_clock_offset]``; observing a value inside it bumps the read
  timestamp and refreshes previous reads (§6.1);
* writes may be advanced by the timestamp cache, by committed values
  (write-too-old), and — on GLOBAL ranges — past the future-time closed
  timestamp target (§6.2.1);
* if the provisional commit timestamp moved above the read timestamp,
  the read set is refreshed before committing;
* a commit timestamp above present time (a future-time / global
  transaction, or an observed future value) requires **commit wait**:
  the coordinator delays the client acknowledgement until its local HLC
  passes the timestamp.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from ..errors import (
    AmbiguousCommitError,
    ClockFencedError,
    ConditionFailedError,
    DeadlineExceededError,
    RangeKeyMismatchError,
    RangeUnavailableError,
    ReadWithinUncertaintyIntervalError,
    TransactionAbortedError,
    TransactionRetryError,
)
from ..sim.network import NetworkUnavailableError, RequestNotSentError
from ..kv.commands import TxnStatus
from ..kv.distsender import DistSender, ReadRouting
from ..kv.range import Range
from ..obs import DETACHED
from ..sim.clock import Timestamp
from ..sim.core import all_of
from .protocol import TxnProtocol

__all__ = ["CrdbProtocol", "Transaction"]

#: Failures of the unwaited intent cleanup that leave recoverable
#: orphans (waiter pushes resolve them); any other is a bug.
_CLEANUP_BENIGN = (NetworkUnavailableError, RangeUnavailableError,
                   DeadlineExceededError, RangeKeyMismatchError)


class Transaction:
    """One attempt of a client transaction, pinned to a gateway node."""

    #: The pipelined writes the commit must prove, keyed by span and
    #: key (a split since the write must not split the entry): (token,
    #: key, the latest value written).  Made at the first one: most
    #: transactions pipeline nothing.
    pipelined: Optional[Dict[Tuple[Any, Any], Tuple[Any, Any, Any]]] = None

    def __init__(self, coordinator, gateway, txn_id: int, parent_span=None):
        self.coordinator = coordinator
        self.gateway = gateway
        self.txn_id = txn_id
        #: Id of the root (or SQL-statement-child) span covering the
        #: whole attempt; 0 when the request is not traced.
        self.span = coordinator.tracer.start(
            "txn", parent_span,
            ("txn_id", txn_id, "gateway", gateway.node_id))
        start = gateway.clock.now()
        self.read_ts: Timestamp = start
        self.write_ts: Timestamp = start
        #: Fixed upper bound of the uncertainty interval (never moves).
        self.uncertainty_limit: Timestamp = Timestamp(
            start.physical + gateway.clock.max_offset, start.logical)
        #: Keys read so far (for refreshes): list of (token, key), where
        #: a token is a Range or a TableSpan — refreshes re-resolve
        #: through the DistSender so they follow splits/merges.
        self.read_set: List[Tuple[Any, Any]] = []
        #: Keys written so far: (owning_range_id, key) -> (token, key).
        self.write_set: Dict[Tuple[int, Any], Tuple[Any, Any]] = {}
        #: The concrete range holding this transaction's record, pinned
        #: (resolved from its token) at the first write and never moved —
        #: a split leaves the record on the original range, which keeps
        #: serving record operations even as a post-merge husk.
        self.anchor: Optional[Range] = None
        #: Commit-wait obligation from observed future-time values.
        self.observed_future_ts: Optional[Timestamp] = None
        self.status = TxnStatus.PENDING
        self.commit_ts: Optional[Timestamp] = None
        #: Absolute sim-time deadline propagated into every DistSender
        #: data RPC (commit/cleanup RPCs run deadline-free so an expired
        #: transaction still resolves its intents).
        self.deadline_ms: Optional[float] = None
        #: Why the attempt aborted ("retry", "validation", "fatal"),
        #: set by the coordinator's retry machinery for the history
        #: recorder; None while live or committed.
        self.abort_reason: Optional[str] = None

    @property
    def _ds(self) -> DistSender:
        return self.coordinator.distsender

    # -- reads -------------------------------------------------------------

    def read(self, rng: Range, key: Any,
             routing: str = ReadRouting.LEASEHOLDER) -> Generator:
        """Transactional read of ``key``; returns the value (or None).

        Handles uncertainty restarts internally: the read timestamp is
        bumped to the uncertain value's timestamp, prior reads are
        refreshed, and the read retries (paper §6.1–6.2).
        """
        while True:
            # With no other spans, the serving replica may retry
            # uncertainty restarts locally (one WAN round trip total).
            allow_bump = not self.read_set and not self.write_set
            try:
                result, effective_ts = yield self._ds.read(
                    self.gateway, rng, key, self.read_ts,
                    txn_id=self.txn_id,
                    uncertainty_limit=self.uncertainty_limit,
                    routing=routing,
                    allow_server_side_bump=allow_bump,
                    span=self.span, deadline_ms=self.deadline_ms)
            except ReadWithinUncertaintyIntervalError as err:
                value_ts = err.value_ts
                self.coordinator.note_uncertainty_restart(value_ts)
                yield from self._refresh_to(value_ts.with_synthetic(False))
                self._note_future_observation(value_ts)
                continue
            if effective_ts > self.read_ts:
                # Server-side uncertainty bump (only legal with no spans).
                self.coordinator.note_uncertainty_restart(effective_ts)
                self.read_ts = effective_ts.with_synthetic(False)
                if self.write_ts < self.read_ts:
                    self.write_ts = self.read_ts
                self._note_future_observation(effective_ts)
            self.read_set.append((rng, key))
            recorder = self.coordinator.recorder
            if recorder is not None:
                recorder.on_read(self, rng, key, result)
            return result.value

    def read_batch(self, requests: List[Tuple[Range, Any]],
                   routing: str = ReadRouting.LEASEHOLDER) -> Generator:
        """Read several keys in parallel (one round trip to the furthest
        replica).  Returns values in request order.  Used by fan-out
        plans: uniqueness checks and locality-optimized-search misses."""
        if not requests:
            return []
        while True:
            futures = [
                self._ds.read(self.gateway, rng, key, self.read_ts,
                              txn_id=self.txn_id,
                              uncertainty_limit=self.uncertainty_limit,
                              routing=routing, span=self.span,
                              deadline_ms=self.deadline_ms)
                for rng, key in requests
            ]
            try:
                results = yield all_of(self.coordinator.sim, futures)
            except ReadWithinUncertaintyIntervalError as err:
                value_ts = err.value_ts
                self.coordinator.note_uncertainty_restart(value_ts)
                yield from self._refresh_to(value_ts.with_synthetic(False))
                self._note_future_observation(value_ts)
                continue
            recorder = self.coordinator.recorder
            for (rng, key), (result, _ts) in zip(requests, results):
                self.read_set.append((rng, key))
                if recorder is not None:
                    recorder.on_read(self, rng, key, result)
            return [result.value for result, _ts in results]

    def locking_read(self, rng: Range, key: Any) -> Generator:
        """SELECT FOR UPDATE: read the latest value and lock the key.

        The value corresponds to the lock timestamp, so the transaction's
        read timestamp advances to it — free when there are no prior read
        spans, via refresh otherwise (paper §5.1/§6.1 machinery).
        """
        if self.anchor is None:
            self.anchor = self._ds.resolve(rng, key)
        value, lock_ts = yield self._ds.locking_read(
            self.gateway, rng, key, self.write_ts, self.txn_id,
            anchor_node_id=self.anchor.leaseholder_node_id or -1,
            span=self.span, deadline_ms=self.deadline_ms)
        if lock_ts > self.write_ts:
            self.write_ts = lock_ts
        self._note_write(rng, key)
        real_lock_ts = lock_ts.with_synthetic(False)
        if real_lock_ts > self.read_ts:
            yield from self._refresh_to(real_lock_ts)
        self._note_future_observation(lock_ts)
        self.read_set.append((rng, key))
        recorder = self.coordinator.recorder
        if recorder is not None:
            recorder.on_locking_read(self, rng, key, value)
        return value

    def _note_future_observation(self, ts: Timestamp) -> None:
        """Owe a commit wait for an observed ``ts`` that is synthetic or
        ahead of the gateway's clock."""
        if not (ts.synthetic
                or ts.physical > self.gateway.clock.physical_now()):
            return
        if (self.observed_future_ts is None
                or ts > self.observed_future_ts):
            self.observed_future_ts = ts

    # -- writes -------------------------------------------------------------

    def _is_home(self, owner: Range) -> bool:
        """Is ``owner``'s leaseholder in the gateway's region?  Only then
        is a write pipelined."""
        replica = owner.replicas.get(owner.leaseholder_node_id)
        return (replica is not None and replica.node.locality.region
                == self.gateway.locality.region)

    def _has_written(self, rng: Range, key: Any) -> bool:
        """Is ``key`` (of ``rng``'s span) in the write set?  By span, not
        by owning range: a split since the write must not hide it."""
        span = rng.span
        for token, written in self.write_set.values():
            if written == key and token.span is span:
                return True
        return False

    def write(self, rng: Range, key: Any, value: Any,
              commit: bool = False, expect_absent: bool = False) -> Generator:
        """Transactional write (lays an intent at the leaseholder).

        ``commit`` promises that this is the transaction's last
        operation.  When it is also its first write, the leaseholder is
        asked to commit in the write's own consensus round (one-phase
        commit): no intent, no lock left behind, nothing for
        :meth:`commit` to resolve.  The leaseholder declines — and the
        write is a plain intent — when it had to move the timestamp
        under the transaction's read spans.

        ``expect_absent`` makes the write a conditional put (SQL INSERT,
        unique-index entries): the leaseholder lays the intent only if
        the key has no live value, else rejects with
        :class:`~repro.errors.ConditionFailedError` — one request where
        a read and a write were two.  Nothing joins the read set: the
        condition was judged against the key's newest version at the
        intent's timestamp, and the intent guards the key from there on.
        The leaseholder counts this transaction's own intent as absent
        (a re-sent request meets its first attempt), so a key already
        in the write set is read, then written.
        """
        if expect_absent and self.write_set and self._has_written(rng, key):
            existing = yield from self.read(rng, key)
            if existing is not None:
                raise ConditionFailedError(key, existing)
            expect_absent = False
        ds = self._ds
        if self.anchor is None:
            self.anchor = ds.resolve(rng, key)
        anchor_node = self.anchor.leaseholder_node_id or -1
        coordinator = self.coordinator
        one_phase = (commit and not self.write_set
                     and (not self.read_set or self.write_ts == self.read_ts)
                     and not coordinator.spanner_style_commit_wait)
        pipelined = not one_phase and self._is_home(ds.resolve(rng, key))
        try:
            # The intent's timestamp — or, one-phase, (ts, committed).
            reply = yield ds.write(
                self.gateway, rng, ((key, value),), self.write_ts,
                self.txn_id, anchor_node_id=anchor_node, span=self.span,
                deadline_ms=self.deadline_ms, commit=one_phase,
                can_forward=one_phase and not self.read_set,
                expect_absent=expect_absent, pipelined=pipelined)
        except (NetworkUnavailableError, RangeUnavailableError) as err:
            if not one_phase or isinstance(err, (RequestNotSentError,
                                                 ClockFencedError)):
                raise  # an intent, or nothing got as far as evaluation
            # An attempt was lost in transit or in replication (a
            # proposal can outlive its timeout), so the commit is in
            # doubt: the record the entry carries proves it — where the
            # key lives now, the record having travelled with it — and
            # nothing disproves it.
            recovered = self._recover_commit_outcome(ds.resolve(rng, key))
            if recovered is None:
                if coordinator.recorder is not None:
                    # The history must allow for a write that may yet
                    # land, at a timestamp nobody knows.
                    coordinator.recorder.on_write(self, rng, key, value, None)
                raise self._ambiguous(self.write_ts, self.span)
            reply = (recovered, True)
        written_ts = reply
        if one_phase:
            written_ts, committed = reply
            if committed:
                coordinator.stats.c_one_phase_commits.value += 1
                self.commit_ts = written_ts
            else:
                coordinator.stats.c_one_phase_fallbacks.value += 1
        self._wrote(rng, key, value, written_ts, expect_absent, pipelined)
        return written_ts

    def write_batch(self, items: List[Tuple[Range, Any, Any]],
                    expect_absent: bool = False) -> Generator:
        """Write several (range, key, value) intents in parallel, one
        RPC and one Raft entry per owning range.

        One round trip to the furthest leaseholder instead of a sum of
        round trips — this is how the duplicate-indexes baseline fans a
        write out to every region's index (paper §7.3.1) and a multi-row
        INSERT writes its rows (``expect_absent``: each a conditional
        put, see :meth:`write`).

        On failure (e.g. a deadlock abort on one key) every range's
        outcome is still awaited so that all intents actually laid are
        in the write set before the rollback cleans them up.
        """
        if not items:
            return []
        if expect_absent:
            keys = {(rng.span, key) for rng, key, _value in items}
            if len(keys) < len(items) or not keys.isdisjoint(
                    (token.span, key)
                    for token, key in self.write_set.values()):
                # A key written twice by this transaction: one at a
                # time, each seeing the one before (see :meth:`write`).
                written = []
                for rng, key, value in items:
                    written.append((yield from self.write(
                        rng, key, value, expect_absent=True)))
                return written
        ds = self._ds
        if self.anchor is None:
            self.anchor = ds.resolve(items[0][0], items[0][1])
        # All or nothing: a batch that also waits on a remote range's
        # round trip hides a local quorum round anyway.
        pipelined = all(self._is_home(ds.resolve(rng, key))
                        for rng, key, _value in items)
        outcomes = yield ds.write_batch(
            self.gateway, items, self.write_ts, self.txn_id,
            anchor_node_id=self.anchor.leaseholder_node_id or -1,
            span=self.span, deadline_ms=self.deadline_ms,
            expect_absent=expect_absent, pipelined=pipelined)
        first_error: Optional[BaseException] = None
        written: List[Timestamp] = []
        for (rng, key, value), ts in zip(items, outcomes):
            if isinstance(ts, BaseException):
                if first_error is None:
                    first_error = ts
                continue
            written.append(ts)
            self._wrote(rng, key, value, ts, expect_absent, pipelined)
        if first_error is not None:
            raise first_error
        return written

    def _wrote(self, rng: Range, key: Any, value: Any, ts: Timestamp,
               expect_absent: bool, pipelined: bool) -> None:
        """After an intent landed at ``ts`` (or a one-phase commit):
        lift the write timestamp, join the write set unless committed,
        and tell the history recorder."""
        if ts > self.write_ts:
            self.write_ts = ts
        if self.commit_ts is None:
            self._note_write(rng, key, value, pipelined)
        recorder = self.coordinator.recorder
        if recorder is not None:
            if expect_absent:
                # What the leaseholder saw under the intent's latch.
                recorder.on_locking_read(self, rng, key, None)
            recorder.on_write(self, rng, key, value, ts)

    def _note_write(self, rng: Range, key: Any, value: Any = None,
                    pipelined: bool = False) -> None:
        self.write_set[(self._ds.resolve(rng, key).range_id, key)] = (rng, key)
        if pipelined:
            if self.pipelined is None:
                self.pipelined = {}
            self.pipelined[(rng.span, key)] = (rng, key, value)
            self.coordinator.stats.c_pipelined_writes.value += 1
        elif self.pipelined:
            # An awaited write of the key replaced the pipelined one, or
            # a locking read waited its entry out: nothing left to prove.
            self.pipelined.pop((rng.span, key), None)

    def delete(self, rng: Range, key: Any, commit: bool = False) -> Generator:
        """Transactional delete (a tombstone write)."""
        result = yield from self.write(rng, key, None, commit)
        return result

    # -- refresh --------------------------------------------------------------

    def _refresh_to(self, new_ts: Timestamp) -> Generator:
        """Try to advance ``read_ts`` to ``new_ts``; raise retry on failure."""
        if new_ts <= self.read_ts:
            return
        self.coordinator.stats.c_refreshes.value += 1
        if self.read_set:
            futures = [
                self._ds.refresh(self.gateway, rng, key, self.read_ts,
                                 new_ts, self.txn_id, span=self.span,
                                 deadline_ms=self.deadline_ms)
                for rng, key in self.read_set
            ]
            results = yield all_of(self.coordinator.sim, futures)
            if not all(results):
                self.coordinator.stats.c_refresh_failures.value += 1
                raise TransactionRetryError(
                    f"txn {self.txn_id}: read refresh to {new_ts} failed",
                    retry_ts=new_ts)
        self.read_ts = new_ts
        if self.write_ts < self.read_ts:
            self.write_ts = self.read_ts

    # -- commit / rollback -------------------------------------------------------

    def commit(self) -> Generator:
        """Commit the transaction; returns the commit timestamp.

        Read-only transactions commit locally but may still owe a commit
        wait for observed future-time values.
        """
        if self.status != TxnStatus.PENDING:
            raise TransactionAbortedError(f"txn {self.txn_id} not pending")
        tracer = self.coordinator.tracer
        commit_span = self.span and tracer.start(
            "txn.commit", self.span,
            ("txn_id", self.txn_id, "writes", len(self.write_set)))
        try:
            if not self.write_set and self.commit_ts is None:
                self.status = TxnStatus.COMMITTED
                self.commit_ts = self.read_ts
                self.coordinator.forget(self)  # it laid no intent
                yield from self._commit_wait_if_needed(
                    self.observed_future_ts, commit_span)
                self._record_outcome("commit")
                return self.read_ts

            # A transaction whose writes all hit one range commits with
            # no separate record write (CRDB's parallel-commits latency
            # profile) — and one that committed one-phase has no write
            # left to account for at all.  Multi-range transactions
            # persist an explicit record on the anchor range before
            # acknowledging; its entry resolves that range's intents
            # too (CRDB's EndTxn), unless the locks are to be held
            # through the commit wait.
            local_keys, elsewhere, multi_range = self._intents_by_anchor()
            # Serializability check: reads must be valid at the commit ts
            # — while the pipelined writes are proven.
            prove, proof = self._prove_pipelined(multi_range, commit_span)
            yield from self._refresh_to(self.write_ts.with_synthetic(False))
            if proof is not None:
                for outcome in (yield proof):
                    if outcome is not None:
                        raise outcome  # TransactionRetryError: a lost write
            commit_ts = self.write_ts
            self.commit_ts = commit_ts
            spans = elsewhere
            if (not multi_range
                    or self.coordinator.spanner_style_commit_wait):
                local_keys, spans = (), list(self.write_set.values())
            if multi_range:
                try:
                    yield self._ds.write_txn_record(
                        self.gateway, self.anchor, self.txn_id,
                        TxnStatus.COMMITTED, commit_ts, span=commit_span,
                        resolve_keys=local_keys, prove=prove)
                except (NetworkUnavailableError, RangeUnavailableError) as err:
                    if isinstance(err, ClockFencedError):
                        raise  # refused unevaluated
                    # The record write was lost in flight, or its proposal
                    # timed out with the entry still in the log — it may
                    # or may not have replicated.  Consult the replicated
                    # records (the sim stand-in for CRDB's txn recovery
                    # protocol).
                    if self._recover_commit_outcome(self.anchor) is None:
                        raise self._ambiguous(commit_ts, commit_span)

            wait_target = commit_ts
            if (self.observed_future_ts is not None
                    and self.observed_future_ts > wait_target):
                wait_target = self.observed_future_ts

            if self.coordinator.spanner_style_commit_wait:
                # Ablation: hold locks (defer intent resolution, and stay
                # unpushable) through the commit wait, as Spanner does
                # (§6.2).
                yield from self._commit_wait_if_needed(wait_target,
                                                       commit_span)
                self.status = TxnStatus.COMMITTED
                self._resolve_intents_async(commit_ts, spans)
            else:
                # CRDB: release locks concurrently with the wait.
                self.status = TxnStatus.COMMITTED
                self._resolve_intents_async(commit_ts, spans)
                yield from self._commit_wait_if_needed(wait_target,
                                                       commit_span)
            self._record_outcome("commit")
            if not self.coordinator.resolve_before_forget:
                self.coordinator.forget(self)  # the ablation: at the ack
            return commit_ts
        finally:
            tracer.finish(commit_span, "status", self.status)

    def _record_outcome(self, outcome: str) -> None:
        """History-recorder notification at the client-acknowledgement
        point (after any commit wait); no-op unless a recorder is set."""
        recorder = self.coordinator.recorder
        if recorder is None:
            return
        if outcome == "commit":
            recorder.on_commit(self)
        elif outcome == "indeterminate":
            recorder.on_indeterminate(self)
        else:
            recorder.on_abort(self)

    def _recover_commit_outcome(self, rng: Range) -> Optional[Timestamp]:
        """Did the commit record replicate despite the lost RPC?

        Peeks ``rng``'s replicated transaction records — any replica
        that applied a COMMITTED record proves the outcome, and holds
        its timestamp.
        """
        for replica in rng.replicas.values():
            record = replica.committed(self.txn_id)
            if record is not None:
                return record.commit_ts
        return None

    def _ambiguous(self, commit_ts: Timestamp, span) -> AmbiguousCommitError:
        """The commit's outcome is unknowable: mark aborted locally so
        lock-table pushes unblock waiters, but do NOT write an ABORTED
        record over a possibly-committed one."""
        self.status = TxnStatus.ABORTED
        self.coordinator.stats.c_ambiguous_commits.value += 1
        self.coordinator.tracer.tag(span, "ambiguous", True)
        self._record_outcome("indeterminate")
        return AmbiguousCommitError(self.txn_id, commit_ts)

    def _intents_by_anchor(self):
        """Split the write set at the anchor range: ``(keys living on it
        now, spans living elsewhere, does it touch more than one
        range)``."""
        resolve = self._ds.resolve
        anchor = self.anchor
        local_keys = []
        elsewhere = []
        owners = set()
        for span in self.write_set.values():
            owner = resolve(span[0], span[1])
            owners.add(owner.range_id)
            if owner is anchor:
                local_keys.append(span[1])
            else:
                elsewhere.append(span)
        return tuple(local_keys), elsewhere, len(owners) > 1

    def _prove_pipelined(self, multi_range: bool, span):
        """Start proving the pipelined writes: one request per range —
        except, on a multi-range commit, the anchor range's, which ride
        in its record request.  Returns ``(the anchor's (key, value)
        writes, the proof's future or None)``."""
        if not self.pipelined or not self.coordinator.prove_writes:
            return (), None
        at_anchor, elsewhere = [], []
        for write in self.pipelined.values():
            if multi_range and self._ds.resolve(write[0], write[1]) \
                    is self.anchor:
                at_anchor.append(write[1:])
            else:
                elsewhere.append(write)
        proof = elsewhere and self._ds.query_intents(
            self.gateway, elsewhere, self.txn_id, span=span,
            deadline_ms=self.deadline_ms)
        return tuple(at_anchor), proof or None

    def _resolve_intents_async(self, commit_ts: Optional[Timestamp],
                               spans: List[Tuple[Any, Any]]) -> None:
        # ``spans``: the intents still outstanding — none after a
        # one-phase commit, which the DistSender answers with a settled
        # future; not the anchor range's after a multi-range commit,
        # whose record entry resolved them.
        # A background root of its own, traced iff the transaction is:
        # cleanup outlives the transaction span (CRDB resolves intents
        # asynchronously after the client ack).
        cleanup_span = 0
        if spans and self.span:
            cleanup_span = self.coordinator.tracer.start(
                "txn.cleanup", DETACHED,
                ("txn_id", self.txn_id, "intents", len(spans)))
        self._cleanup_span = cleanup_span
        fut = self._ds.resolve_intents(self.gateway, spans, self.txn_id,
                                       commit_ts, span=cleanup_span)
        if spans:
            fut.add_callback(self._cleanup_done)
        else:
            self.coordinator.forget(self)

    def _cleanup_done(self, fut) -> None:
        """Nobody waits on cleanup: forget the transaction once every
        intent is resolved, count the failures that leave recoverable
        orphans (it stays registered for their pushers), crash the run
        on anything else."""
        error = fut._error
        if self._cleanup_span:
            self.coordinator.tracer.finish(
                self._cleanup_span, "error",
                None if error is None else type(error).__name__)
        if error is None:
            self.coordinator.forget(self)
            return
        if isinstance(error, _CLEANUP_BENIGN):
            self.coordinator.sim.obs.registry.counter(
                "txn.cleanup_failures", error=type(error).__name__).inc()
        else:
            self.coordinator.sim._crash(error)

    def _commit_wait_if_needed(self, target: Optional[Timestamp],
                               parent_span=None) -> Generator:
        if target is None:
            return
        clock = self.gateway.clock
        if target.physical <= clock.physical_now():
            return
        coordinator = self.coordinator
        wait_span = coordinator.tracer.start(
            "txn.commit_wait", parent_span,
            ("txn_id", self.txn_id, "target", target))
        stats = coordinator.stats
        stats.c_commit_waits.value += 1
        waited = yield clock.wait_until(target)
        waited = waited or 0.0
        stats.c_commit_wait_ms_total.value += waited
        stats.h_commit_wait_ms.observe(waited)
        coordinator.tracer.finish(wait_span, "waited_ms", waited)

    def rollback(self) -> Generator:
        """Abort: mark the record aborted and clean up intents, then
        forget the transaction.  A failure on the way raises and leaves
        it registered, ABORTED, for waiter pushes."""
        if self.status != TxnStatus.PENDING:
            return
        self.status = TxnStatus.ABORTED
        self._record_outcome("abort")
        if self.anchor is not None and self.write_set:
            local_keys, elsewhere, _multi = self._intents_by_anchor()
            yield self._ds.write_txn_record(
                self.gateway, self.anchor, self.txn_id, TxnStatus.ABORTED,
                None, span=self.span, resolve_keys=local_keys)
            yield self._ds.resolve_intents(self.gateway, elsewhere,
                                           self.txn_id, None, span=self.span)
        self.coordinator.forget(self)


class CrdbProtocol(TxnProtocol):
    """The default backend: the paper's pipeline, unchanged."""

    name = "crdb"
    wait_kind = "commit-wait"

    def begin(self, coordinator, gateway, txn_id: int,
              parent_span=None) -> Transaction:
        return Transaction(coordinator, gateway, txn_id,
                           parent_span=parent_span)
