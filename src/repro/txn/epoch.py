"""Epoch-based optimistic concurrency control (ROADMAP item 3).

An alternative :class:`~repro.txn.protocol.TxnProtocol` backend in the
style of epoch-based OCC systems (Mao et al.; GeoGauss — see
PAPERS.md): transactions execute *optimistically* at their gateway —
reads fetch the latest committed version from the leaseholder (a GLOBAL
table's present-time version from the gateway's own replica) and are
remembered in a read set, writes buffer locally and touch no locks —
and commit by submitting to a cluster-wide :class:`EpochService` that
groups submissions into batches (group commit: a batch, or *epoch*, is
whatever arrived while the previous order round was in flight — on an
idle service, one submission, at once).  The service **orders** each
batch — replicates its transaction order through Raft
(:class:`~repro.kv.commands.EpochOrderCommand`) so the decision
survives coordinator failure — and then starts every transaction's
commit, from the transaction's own gateway:

1. **waits** for the earlier-ordered commits it conflicts with, and
   only those (Calvin-style deterministic scheduling over a per-key
   table: a key it reads waits on that key's last writer, a key it
   writes on the last writer and every reader since);
2. **validates** — re-reads its read set (every distinct key once, one
   request per range); any key whose latest version changed since
   execution aborts the transaction with a retryable
   :class:`~repro.errors.TransactionValidationError`;
3. **applies** — lays the survivor's writes as intents (one request
   and one Raft entry per range), picks a commit timestamp above every
   intent timestamp *and* every earlier commit, and resolves the
   intents before acknowledging.

Epochs order; keys wait.  Conflicting transactions commit in decided
order, each taking its timestamp after its predecessors finished, so
per-key version order equals the decided order and commit-timestamp
order is a topological order of the conflict graph; transactions that
share no key commute and run in parallel, across epochs too: the
committed transactions are conflict-serializable by construction.
The client-visible latency cost is **epoch wait** — the time from
commit submission to acknowledgement (the rest of an order round in
flight + its batch's ordering Raft round + conflicting predecessors +
validation/apply) — the protocol's
analog of the CRDB pipeline's commit wait, exported as
``txn.epoch_wait_ms``.
Future-time commit timestamps (GLOBAL ranges) additionally hold the
acknowledgement until the gateway clock passes them, preserving the
real-time recency guarantee commit wait provides; the transaction's
keys are free before that wait, so it never stalls a later commit.

Intents exist only inside the apply window; a lock-table waiter
pushes an epoch transaction through the ordinary txn-registry
wait-or-push path, and the transaction leaves the registry once its
intents are resolved (a failed resolve keeps it there for the pushers).
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..errors import (
    ConditionFailedError,
    RangeUnavailableError,
    TransactionAbortedError,
    TransactionRetryError,
    TransactionValidationError,
)
from ..sim.network import NetworkUnavailableError
from ..kv.commands import TxnStatus
from ..kv.distsender import ReadRouting
from ..obs import DETACHED
from ..sim.clock import TS_MAX, TS_ZERO, Timestamp
from ..sim.core import Future, all_of, settle_all
from .protocol import TxnProtocol

__all__ = ["EpochOccProtocol", "EpochService", "EpochTransaction"]

#: Errors that abort an epoch step retryably (the client resubmits into
#: a later batch) — a leaseholder refusing a step, say a clock-outlier
#: rejection, included.
_EPOCH_RETRYABLE = (NetworkUnavailableError, RangeUnavailableError,
                    TransactionAbortedError, TransactionRetryError)


class _BufferedRead:
    """Recorder-compatible stand-in for a read served from the
    transaction's own write buffer (no MVCC version exists yet)."""

    __slots__ = ("value",)
    ts = None
    from_intent = False

    def __init__(self, value: Any):
        self.value = value


class EpochService:
    """Cluster-wide epoch sequencer: groups commit submissions into
    batches, orders the batches serially and commits each transaction
    once its conflicting predecessors have finished.

    One service per cluster (shared by every epoch-OCC coordinator on
    it, so the decided order covers all of them); created lazily by
    :class:`EpochOccProtocol` on first use and attached to the cluster.
    A batch seals as soon as the order round before it is done:
    submissions made at one instant, or while a round is in flight,
    share the next round, and an idle service orders a lone
    transaction at once.  The drain process runs only while there is
    something to order, so simulations still drain.

    What a commit costs, per step, with the ``bench/`` ``tpcc_epoch``
    counts per repetition (122 transactions, 105 of them writers; seed
    0; EXPERIMENTS.md "Round 8" and "Round 13"), all sent from the
    transaction's gateway:

    * HOT: **validate** — one leaseholder RPC per range holding a
      distinct read-set key, no Raft: 608 RPCs (5.0 per transaction).
    * HOT: **apply** — one RPC *and one Raft entry* per range written
      (a one-key group is a plain ``PutIntentCommand``, a larger one a
      ``BatchCommand``): 479 of each (4.6 per writer).
    * HOT: **resolve** — one RPC and one Raft entry per range written,
      479 of each, through ``DistSender.resolve_intents``.
    * **order** — one RPC and one Raft entry per *batch* with a writer,
      shared by the whole batch and sent from the anchor range's
      leaseholder: the one serial step.
    """

    #: Commit-time read-set validation.  Off only in the verify
    #: harness's ``occ-novalidate`` ablation: the service then commits
    #: every submission blindly, and the checker must convict the
    #: resulting lost updates.
    validate = True

    #: Commits wait for the earlier-ordered commits they conflict with.
    #: Off only in the verify harness's ``occ-unordered`` ablation: every
    #: ordered transaction then validates and applies at once, and the
    #: checker must convict the races between conflicting ones.
    order_conflicts = True

    def __init__(self, cluster, distsender):
        self.cluster = cluster
        self.sim = cluster.sim
        self.ds = distsender
        #: The open batch: [(txn, ack future)] awaiting the next order
        #: round.
        self._open: List[Tuple["EpochTransaction", Future]] = []
        self._draining = False
        #: The per-key table: (span, key) -> [last writer, {readers
        #: since: None}], each a running commit's completion future,
        #: claimed in decided order and emptied as commits finish.
        self._keys: Dict[Tuple[Any, Any], list] = {}
        #: High-water commit timestamp: every commit lands above it, so
        #: along any conflict chain (same keys, committed in decided
        #: order) MVCC version order equals the decided serial order.
        self._last_commit_ts: Timestamp = TS_ZERO
        #: Every ordering decision, as decided: [(epoch, (txn_id, ...))],
        #: a batch's epoch being its index here.
        self.order_log: List[Tuple[int, Tuple[int, ...]]] = []
        self._seq = 0
        registry = self.sim.obs.registry
        self._c_epochs = registry.counter("txn.epochs_sealed")
        self._c_validation_reads = registry.counter("txn.validation_reads")
        self._h_epoch_wait = registry.histogram("txn.epoch_wait_ms")

    # -- submission ----------------------------------------------------------

    def submit(self, txn: "EpochTransaction") -> Future:
        """Add a finished transaction to the open batch; resolves with
        the commit timestamp, or rejects (validation conflict, fault)."""
        ack = Future(self.sim)
        txn.submitted_at_ms = self.sim.now
        self._open.append((txn, ack))
        if not self._draining:
            self._draining = True
            self.sim.spawn(self._drain(), name="epoch-service")
        return ack

    def _seal(self) -> Tuple[int, List[Tuple["EpochTransaction", Future]]]:
        """Close the open batch and number it: batch *n* is the *n*-th
        ordering decision."""
        batch, self._open = self._open, []
        epoch = len(self.order_log)
        for txn, _ack in batch:
            txn.epoch = epoch
        self._c_epochs.inc()
        return epoch, batch

    def _drain(self) -> Generator:
        """Order batches strictly in sequence, one at a time — each one
        what arrived while the round before it was in flight — and start
        each transaction's commit as soon as it is ordered."""
        try:
            while self._open:
                epoch, batch = self._seal()
                yield from self._order_epoch(epoch, batch)
        finally:
            self._draining = False

    # -- the epoch pipeline --------------------------------------------------

    def _order_epoch(self, epoch: int, batch) -> Generator:
        txn_ids = tuple(txn.txn_id for txn, _ack in batch)
        self.order_log.append((epoch, txn_ids))
        # Replicate the ordering decision before acting on it.  Anchored
        # on the first writer's first-write range and sent from that
        # range's leaseholder (the first submitter's gateway when there
        # is none), so the serial drain pays a quorum round per epoch,
        # not a WAN round trip; an all-read epoch decides nothing
        # durable (nothing to recover).
        anchor = next((next(iter(txn.write_buffer)) for txn, _ack in batch
                       if txn.write_buffer), None)
        if anchor is not None:
            origin = (self.ds.resolve(*anchor).leaseholder_node
                      or batch[0][0].gateway)
            # The ordering RPC belongs to the whole batch: a detached
            # root, traced when any transaction in the batch is.
            traced = any(txn.span for txn, _ack in batch)
            try:
                yield self.ds.epoch_order(origin, anchor[0], epoch, txn_ids,
                                          span=DETACHED if traced else 0)
            except _EPOCH_RETRYABLE as err:
                for txn, ack in batch:
                    txn.abort_reason = "retry"
                    ack.reject(err)
                return
        for txn, ack in batch:
            txn.seq = self._seq
            self._seq += 1
            done = Future(self.sim)
            self.sim.spawn(self._commit_one(txn, ack, self._claim(txn, done),
                                            done),
                           name=f"epoch-commit-{txn.txn_id}")

    def _claim(self, txn: "EpochTransaction", done: Future) -> List[Future]:
        """Enter ``txn`` in the per-key table, in decided order, and
        return the still-running earlier commits it must wait for: a key
        it only reads waits on that key's last writer, a key it writes
        on the last writer and every reader since."""
        if not self.order_conflicts:
            return []
        deps: Dict[Future, None] = {}
        keys, writes = self._keys, txn.write_buffer
        for keyspan, key, _observed in txn.read_set:
            if (keyspan, key) not in writes:
                entry = keys.setdefault((keyspan, key), [None, {}])
                if entry[0] is not None:
                    deps[entry[0]] = None
                entry[1][done] = None
        for item in writes:
            entry = keys.get(item)
            if entry is not None:
                if entry[0] is not None:
                    deps[entry[0]] = None
                deps.update(entry[1])
            keys[item] = [done, {}]
        return list(deps)

    def _release(self, txn: "EpochTransaction", done: Future) -> None:
        """Mark ``txn``'s commit finished and take it out of the per-key
        table; a key no running commit holds leaves the table."""
        done.resolve()
        keys = self._keys
        for item in chain(txn.write_buffer,
                          ((keyspan, key) for keyspan, key, _observed
                           in txn.read_set)):
            entry = keys.get(item)
            if entry is not None:
                if entry[0] is done:
                    entry[0] = None
                entry[1].pop(done, None)
                if entry[0] is None and not entry[1]:
                    del keys[item]

    def _commit_one(self, txn: "EpochTransaction", ack: Future,
                    deps: List[Future], done: Future) -> Generator:
        """Wait for the conflicting earlier commits to finish — finish,
        not succeed: a failed commit rejects its ack and frees its keys —
        then validate, apply and resolve from the transaction's own
        gateway.  Its keys are free before any commit wait."""
        try:
            if deps:
                yield settle_all(self.sim, deps)
            commit_ts = yield from self._commit(txn, ack)
        finally:
            self._release(txn, done)
        if commit_ts is not None:
            yield from self._ack_after_wait(txn, ack, commit_ts)

    def _ack_after_wait(self, txn: "EpochTransaction", ack: Future,
                        commit_ts: Timestamp) -> Generator:
        """Acknowledge at the gateway.  A future-time commit timestamp
        (GLOBAL ranges) holds the ack until the gateway clock passes it —
        the recency obligation commit wait discharges in the CRDB
        pipeline."""
        clock = txn.gateway.clock
        if commit_ts.physical > clock.physical_now():
            yield clock.wait_until(commit_ts)
        stats = txn.coordinator.stats
        stats.c_epoch_waits.value += 1
        waited = self.sim.now - txn.submitted_at_ms
        stats.c_epoch_wait_ms_total.value += waited
        self._h_epoch_wait.observe(waited)
        ack.resolve(commit_ts)

    def _commit(self, txn: "EpochTransaction",
                ack: Future) -> Generator:
        """Validate and apply; the commit timestamp, or None once
        ``ack`` is rejected."""
        if txn.status != TxnStatus.PENDING:
            ack.reject(TransactionAbortedError(
                f"txn {txn.txn_id} no longer pending at its epoch"))
            return None
        # 1. Validate: every read-set version must still be the latest.
        if self.validate and txn.read_set:
            try:
                conflict = yield from self._validate(txn)
            except _EPOCH_RETRYABLE as err:
                txn.abort_reason = "retry"
                ack.reject(err)
                return None
            if conflict is not None:
                token, key, observed_ts, current_ts = conflict
                stats = txn.coordinator.stats
                stats.c_validation_aborts.value += 1
                recorder = txn.coordinator.recorder
                if recorder is not None:
                    recorder.on_validation_fail(txn, token, key,
                                                observed_ts, current_ts)
                ack.reject(TransactionValidationError(
                    txn.txn_id, key=key, observed_ts=observed_ts,
                    current_ts=current_ts))
                return None
        # 2. Apply: lay intents, fix the commit timestamp, resolve.
        if not txn.write_buffer:
            commit_ts = self._last_commit_ts
            for _token, _key, observed_ts in txn.read_set:
                if observed_ts is not None and observed_ts > commit_ts:
                    commit_ts = observed_ts
            if commit_ts == TS_ZERO:
                commit_ts = txn.read_ts
            txn.commit_ts = commit_ts
            txn.status = TxnStatus.COMMITTED
            txn.coordinator.forget(txn)  # it laid no intent
            return commit_ts
        try:
            commit_ts = yield from self._apply(txn)
        except _EPOCH_RETRYABLE as err:
            txn.abort_reason = "retry"
            ack.reject(err)
            return None
        if commit_ts > self._last_commit_ts:
            self._last_commit_ts = commit_ts
        return commit_ts

    def _validate(self, txn: "EpochTransaction") -> Generator:
        """Re-read the read set (latest committed) — each distinct key
        once, one RPC per range — and judge every observation against
        it; returns the first conflicting entry ``(keyspan, key,
        observed_ts, current_ts)`` in read order, or None if every
        version is unchanged."""
        entries = txn.read_set
        self._c_validation_reads.inc(len(entries))
        distinct = list(dict.fromkeys(
            (keyspan, key) for keyspan, key, _observed in entries))
        gateway = txn.gateway
        outcomes = yield self.ds.read_batch(
            gateway, distinct, gateway.clock.now(), txn_id=txn.txn_id,
            uncertainty_limit=TS_MAX, allow_server_side_bump=True,
            span=txn.span)
        current: Dict[Tuple[Any, Any], Optional[Timestamp]] = {}
        for request, outcome in zip(distinct, outcomes):
            if isinstance(outcome, BaseException):
                raise outcome
            current[request] = outcome[0].ts
        for keyspan, key, observed_ts in entries:
            current_ts = current[(keyspan, key)]
            if current_ts != observed_ts:
                return (keyspan, key, observed_ts, current_ts)
        return None

    def _apply(self, txn: "EpochTransaction") -> Generator:
        """Lay the write buffer as intents — one RPC and one Raft entry
        per range — commit above every earlier commit, and resolve
        before acknowledging (so the next serial step — and every
        post-ack reader — sees this state)."""
        items = [(keyspan, key, value)
                 for (keyspan, key), value in txn.write_buffer.items()]
        anchor = self.ds.resolve(items[0][0], items[0][1])
        txn.anchor = anchor
        anchor_node = anchor.leaseholder_node_id or -1
        gateway = txn.gateway
        outcomes = yield self.ds.write_batch(
            gateway, items, gateway.clock.now(), txn.txn_id,
            anchor_node_id=anchor_node, span=txn.span)
        first_error: Optional[BaseException] = None
        commit_ts = self._last_commit_ts.next()
        laid: List[Tuple[Any, Any]] = []
        recorder = txn.coordinator.recorder
        for (keyspan, key, value), written_ts in zip(items, outcomes):
            if isinstance(written_ts, BaseException):
                # The range group this key travelled in failed whole.
                if first_error is None:
                    first_error = written_ts
                continue
            laid.append((keyspan, key))
            if written_ts > commit_ts:
                commit_ts = written_ts
            if recorder is not None:
                recorder.on_write(txn, keyspan, key, value, written_ts)
        if first_error is not None:
            # Partial apply: abort cleanly — resolve whatever intents
            # landed, forget the transaction, then resubmit from scratch.
            txn.status = TxnStatus.ABORTED
            try:
                if laid:
                    yield self.ds.resolve_intents(gateway, laid, txn.txn_id,
                                                  None, span=txn.span)
            except _EPOCH_RETRYABLE:
                pass  # registered, ABORTED: waiter pushes abort the orphans
            else:
                txn.coordinator.forget(txn)
            raise first_error
        txn.commit_ts = commit_ts
        # COMMITTED before resolution, exactly like the CRDB pipeline:
        # lock-table pushes consult the registry and may resolve for us
        # until our own resolve succeeds and forgets the transaction.
        txn.status = TxnStatus.COMMITTED
        try:
            yield self.ds.resolve_intents(gateway, laid, txn.txn_id,
                                          commit_ts, span=txn.span)
        except _EPOCH_RETRYABLE:
            # The transaction is durably committed the instant its
            # status flips — a resolution failure (say, the partition
            # landing mid-epoch) must NOT surface as a retryable abort,
            # or the client re-runs an applied transaction (a phantom
            # double-apply the counter audit convicts).  Leave the
            # orphan intents and the transaction registered: waiter
            # pushes consult the registry and resolve them to the
            # committed values.
            pass
        else:
            txn.coordinator.forget(txn)
        return commit_ts


class EpochTransaction:
    """One optimistic attempt: reads committed state where it is
    cheapest, buffers writes locally, commits through the cluster's
    epoch service."""

    def __init__(self, coordinator, gateway, txn_id: int,
                 service: EpochService, parent_span=None):
        self.coordinator = coordinator
        self.gateway = gateway
        self.txn_id = txn_id
        self.service = service
        self.span = coordinator.tracer.start(
            "txn", parent_span, ("txn_id", txn_id, "gateway",
                                 gateway.node_id, "protocol", "epoch-occ"))
        self.read_ts: Timestamp = gateway.clock.now()
        #: Read set for validation: [(keyspan, key, observed version ts)].
        #: Duplicate reads keep every observation — two reads of one key
        #: that saw different versions can never both be latest at the
        #: commit point, so validation rejects the interleaving.
        self.read_set: List[Tuple[Any, Any, Optional[Timestamp]]] = []
        #: Gateway-local write buffer: (keyspan, key) -> value, in write
        #: order.  No intents exist until the epoch applies.
        #:
        #: Both are keyed on the routing token's *span*, never the token
        #: object: a Range and its TableSpan address the same keys, and
        #: a key reached through both must be one key to the buffer and
        #: to the service's per-key table.
        self.write_buffer: Dict[Tuple[Any, Any], Any] = {}
        self.anchor = None
        self.status = TxnStatus.PENDING
        self.commit_ts: Optional[Timestamp] = None
        self.deadline_ms: Optional[float] = None
        self.abort_reason: Optional[str] = None
        #: Assigned at seal / ordering (property-test surface).
        self.epoch: Optional[int] = None
        self.seq: Optional[int] = None
        self.submitted_at_ms: Optional[float] = None

    @property
    def _ds(self):
        return self.coordinator.distsender

    # -- reads ---------------------------------------------------------------

    def _read_window(self, routing: str) -> Tuple[Timestamp, Timestamp]:
        """``(ts, uncertainty_limit)`` for a read routed ``routing``:
        ``LEASEHOLDER`` reads the latest version; ``NEAREST`` (GLOBAL
        tables) is a present-time read with the CRDB pipeline's window,
        which a GLOBAL range's followers have closed (they close more
        than ``max_offset`` ahead), so the gateway's replica serves it."""
        clock = self.gateway.clock
        now = clock.now()
        if routing == ReadRouting.NEAREST:
            return now, Timestamp(now.physical + clock.max_offset,
                                  now.logical)
        return now, TS_MAX

    def read(self, rng, key: Any,
             routing: str = ReadRouting.LEASEHOLDER) -> Generator:
        """Optimistic read of ``key`` in :meth:`_read_window`.  The
        observed version joins the read set; validation re-reads it at
        the leaseholder and aborts the attempt unless it is still the
        latest, so where it was served moves only latency."""
        keyspan = rng.span
        buffered = self.write_buffer.get((keyspan, key))
        if buffered is not None or (keyspan, key) in self.write_buffer:
            result = _BufferedRead(buffered)
            recorder = self.coordinator.recorder
            if recorder is not None:
                recorder.on_read(self, keyspan, key, result)
            return buffered
        ts, limit = self._read_window(routing)
        result, _effective_ts = yield self._ds.read(
            self.gateway, keyspan, key, ts, txn_id=self.txn_id,
            uncertainty_limit=limit, routing=routing,
            allow_server_side_bump=True, span=self.span,
            deadline_ms=self.deadline_ms)
        self.read_set.append((keyspan, key, result.ts))
        recorder = self.coordinator.recorder
        if recorder is not None:
            recorder.on_read(self, keyspan, key, result)
        return result.value

    def read_batch(self, requests: List[Tuple[Any, Any]],
                   routing: str = ReadRouting.LEASEHOLDER) -> Generator:
        """Read several keys as :meth:`read` does: ``LEASEHOLDER`` one
        RPC per range, ``NEAREST`` one concurrent read per key."""
        values: List[Any] = [None] * len(requests)
        slots: List[int] = []
        fetch: List[Tuple[Any, Any]] = []
        recorder = self.coordinator.recorder
        for index, (rng, key) in enumerate(requests):
            keyspan = rng.span
            if (keyspan, key) in self.write_buffer:
                buffered = values[index] = self.write_buffer[(keyspan, key)]
                if recorder is not None:
                    recorder.on_read(self, keyspan, key,
                                     _BufferedRead(buffered))
            else:
                slots.append(index)
                fetch.append((keyspan, key))
        if fetch:
            ts, limit = self._read_window(routing)
            if routing == ReadRouting.NEAREST:
                outcomes = yield all_of(self.coordinator.sim, [
                    self._ds.read(self.gateway, keyspan, key, ts,
                                  txn_id=self.txn_id, uncertainty_limit=limit,
                                  routing=routing, allow_server_side_bump=True,
                                  span=self.span, deadline_ms=self.deadline_ms)
                    for keyspan, key in fetch])
            else:
                outcomes = yield self._ds.read_batch(
                    self.gateway, fetch, ts, txn_id=self.txn_id,
                    uncertainty_limit=limit, allow_server_side_bump=True,
                    span=self.span, deadline_ms=self.deadline_ms)
            for index, (keyspan, key), outcome in zip(slots, fetch,
                                                      outcomes):
                if isinstance(outcome, BaseException):
                    raise outcome
                result = outcome[0]
                self.read_set.append((keyspan, key, result.ts))
                values[index] = result.value
                if recorder is not None:
                    recorder.on_read(self, keyspan, key, result)
        return values

    def locking_read(self, rng, key: Any) -> Generator:
        """SELECT FOR UPDATE under OCC: there is no lock to take — the
        read joins the read set and commit-time validation supplies the
        same protection (any intervening writer aborts this txn)."""
        value = yield from self.read(rng, key)
        return value

    # -- writes --------------------------------------------------------------

    def write(self, rng, key: Any, value: Any, commit: bool = False,
              expect_absent: bool = False) -> Generator:
        """Buffer the write locally; intents are laid at epoch apply
        (``commit``, the CRDB pipeline's one-phase hint, means nothing
        to a protocol that commits by epoch).  ``expect_absent`` is an
        optimistic read first — it joins the read set, so a row that
        appears before the epoch applies fails validation.

        Recorded in the history at apply time (with its real intent
        timestamp), so aborted optimistic transactions honestly show no
        writes — none ever reached the KV layer.
        """
        if expect_absent:
            existing = yield from self.read(rng, key)
            if existing is not None:
                raise ConditionFailedError(key, existing)
        self.write_buffer[(rng.span, key)] = value
        return None

    def write_batch(self, items: List[Tuple[Any, Any, Any]],
                    expect_absent: bool = False) -> Generator:
        for rng, key, value in items:
            yield from self.write(rng, key, value,
                                  expect_absent=expect_absent)
        return []

    def delete(self, rng, key: Any, commit: bool = False) -> Generator:
        result = yield from self.write(rng, key, None)
        return result

    # -- commit / rollback ---------------------------------------------------

    def commit(self) -> Generator:
        """Submit to the epoch service; blocks (epoch wait) until the
        epoch orders, validates, applies and acknowledges."""
        if self.status != TxnStatus.PENDING:
            raise TransactionAbortedError(f"txn {self.txn_id} not pending")
        tracer = self.coordinator.tracer
        commit_span = self.span and tracer.start(
            "txn.epoch_commit", self.span,
            ("txn_id", self.txn_id, "writes", len(self.write_buffer)))
        try:
            commit_ts = yield self.service.submit(self)
            tracer.tag(commit_span, "epoch", self.epoch)
            recorder = self.coordinator.recorder
            if recorder is not None:
                recorder.on_commit(self)
            return commit_ts
        finally:
            tracer.finish(commit_span, "status", self.status)

    def rollback(self) -> Generator:
        """Abort before (or after a failed) submission.  Purely local:
        no intents exist outside the epoch apply window, and a failed
        apply already cleaned up after itself — so the transaction
        leaves the registry at once."""
        if self.status != TxnStatus.PENDING:
            return
        self.status = TxnStatus.ABORTED
        self.coordinator.forget(self)
        recorder = self.coordinator.recorder
        if recorder is not None:
            recorder.on_abort(self)
        return
        yield  # pragma: no cover - marks this function as a generator


class EpochOccProtocol(TxnProtocol):
    """Epoch-batched OCC backend: a cluster's, via
    ``standard_cluster(txn_protocol="epoch-occ")``."""

    name = "epoch-occ"
    wait_kind = "epoch-wait"

    def service_for(self, coordinator) -> EpochService:
        """The cluster's shared epoch service (one total order per
        cluster, whichever coordinator touches it first creates it)."""
        cluster = coordinator.cluster
        service = cluster.epoch_service
        if service is None:
            service = EpochService(cluster, coordinator.distsender)
            cluster.epoch_service = service
        return service

    def begin(self, coordinator, gateway, txn_id: int,
              parent_span=None) -> EpochTransaction:
        return EpochTransaction(coordinator, gateway, txn_id,
                                self.service_for(coordinator),
                                parent_span=parent_span)
