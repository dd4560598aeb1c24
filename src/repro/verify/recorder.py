"""Transactional history recorder.

A :class:`HistoryRecorder` plugs into the transaction coordinator (and,
through it, the SQL session layer): set ``coordinator.recorder`` (for
SQL, ``engine.coordinator.recorder``) and every transactional read, write,
commit, abort and ambiguous outcome is captured as structured
:mod:`repro.verify.history` records over simulated time.  Stale reads
(exact- and bounded-staleness, §5.3) are recorded as single-op
read-only transactions carrying their requested and served timestamps.

The hooks are deliberately cheap — one attribute load and a None check
on the hot paths when recording is off — so leaving the plumbing in
place costs the benchmarks nothing.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional

from .history import (
    ABORTED,
    COMMITTED,
    INDETERMINATE,
    RecordedOp,
    RecordedTxn,
    VerifyHistory,
    ts_to_json,
)

__all__ = ["HistoryRecorder"]

#: Internal status for transactions still running.
_PENDING = "pending"


def _full_key(rng, key: Any) -> str:
    return f"{rng.name}/{key}"


def _region_of(gateway) -> str:
    locality = getattr(gateway, "locality", None)
    return getattr(locality, "region", "") or ""


class HistoryRecorder:
    """Collects RecordedTxns as the workload runs; ``finalize()`` emits
    an immutable :class:`VerifyHistory` for the pure checkers."""

    def __init__(self, sim):
        self.sim = sim
        self._txns: Dict[int, RecordedTxn] = {}
        self._order: List[int] = []
        #: Stale-read statements get synthetic negative ids so they can
        #: never collide with coordinator transaction ids.
        self._stale_ids = itertools.count(-1, -1)
        self.meta: Dict[str, Any] = {}
        self.final: Dict[str, Any] = {}

    # -- coordinator hooks --------------------------------------------------

    def on_begin(self, txn, gateway, label: Optional[str]) -> None:
        record = RecordedTxn(
            txn_id=txn.txn_id, label=label or f"txn-{txn.txn_id}",
            region=_region_of(gateway), mode="strong", status=_PENDING,
            begin_ms=self.sim.now)
        self._txns[txn.txn_id] = record
        self._order.append(txn.txn_id)

    def _record(self, txn) -> Optional[RecordedTxn]:
        return self._txns.get(txn.txn_id)

    def on_read(self, txn, rng, key: Any, result) -> None:
        record = self._record(txn)
        if record is None:
            return
        record.ops.append(RecordedOp(
            kind="r", key=_full_key(rng, key), value=result.value,
            version_ts=result.ts, at_ms=self.sim.now,
            from_intent=result.from_intent))

    def on_locking_read(self, txn, rng, key: Any, value: Any) -> None:
        record = self._record(txn)
        if record is None:
            return
        record.ops.append(RecordedOp(
            kind="r", key=_full_key(rng, key), value=value,
            version_ts=None, at_ms=self.sim.now))

    def on_write(self, txn, rng, key: Any, value: Any, written_ts) -> None:
        record = self._record(txn)
        if record is None:
            return
        record.ops.append(RecordedOp(
            kind="w", key=_full_key(rng, key), value=value,
            version_ts=written_ts, at_ms=self.sim.now))

    def on_commit(self, txn) -> None:
        """Called when the commit is acknowledged to the client (after
        any commit wait), so ``end_ms`` is the acknowledgement time the
        real-time checker compares against."""
        record = self._record(txn)
        if record is None or record.status != _PENDING:
            return
        record.status = COMMITTED
        record.commit_ts = txn.commit_ts
        record.end_ms = self.sim.now

    def on_abort(self, txn) -> None:
        """Abort, split by why: the coordinator's retry machinery tags
        the transaction with ``abort_reason`` ("retry", "validation" or
        "fatal") before rolling back; the history keeps the split so
        retryable-validation aborts are distinguishable from client
        errors instead of folding into one opaque abort kind."""
        record = self._record(txn)
        if record is None or record.status != _PENDING:
            return
        record.status = ABORTED
        record.abort_kind = getattr(txn, "abort_reason", None) or "fatal"
        record.end_ms = self.sim.now

    def on_validation_fail(self, txn, rng, key: Any, observed_ts,
                           current_ts) -> None:
        """An epoch-OCC read-set validation failure, recorded as a
        first-class history op (kind "v"): ``value`` holds the version
        the transaction read, ``version_ts`` the version that displaced
        it.  The pure checkers ignore "v" ops; differential tooling uses
        them to attribute abort causes."""
        record = self._record(txn)
        if record is None:
            return
        record.ops.append(RecordedOp(
            kind="v", key=_full_key(rng, key), value=ts_to_json(observed_ts),
            version_ts=current_ts, at_ms=self.sim.now))

    def on_indeterminate(self, txn) -> None:
        """An ambiguous commit: the writes may or may not have applied."""
        record = self._record(txn)
        if record is None or record.status != _PENDING:
            return
        record.status = INDETERMINATE
        record.commit_ts = txn.commit_ts
        record.end_ms = self.sim.now

    # -- stale-read hooks ---------------------------------------------------

    def begin_stale(self, gateway, mode: str, requested_ts,
                    label: Optional[str] = None) -> RecordedTxn:
        """Open a record for one stale-read statement (§5.3)."""
        record = RecordedTxn(
            txn_id=next(self._stale_ids),
            label=label or f"stale-{mode}",
            region=_region_of(gateway), mode=mode, status=_PENDING,
            begin_ms=self.sim.now, requested_ts=requested_ts)
        self._txns[record.txn_id] = record
        self._order.append(record.txn_id)
        return record

    def on_stale_read(self, record: RecordedTxn, rng, key: Any, result,
                      effective_ts=None) -> None:
        record.ops.append(RecordedOp(
            kind="r", key=_full_key(rng, key), value=result.value,
            version_ts=result.ts, at_ms=self.sim.now))
        if effective_ts is not None and (
                record.effective_ts is None
                or effective_ts < record.effective_ts):
            # A statement's effective timestamp is the weakest (lowest)
            # timestamp any of its reads was served at.
            record.effective_ts = effective_ts

    def finish_stale(self, record: RecordedTxn, ok: bool = True) -> None:
        if record.status != _PENDING:
            return
        record.status = COMMITTED if ok else ABORTED
        record.end_ms = self.sim.now

    # -- output -------------------------------------------------------------

    def finalize(self) -> VerifyHistory:
        """Freeze into a VerifyHistory.  Transactions still pending at
        the end of the run were never acknowledged either way; they are
        conservatively treated as indeterminate."""
        txns: List[RecordedTxn] = []
        for txn_id in self._order:
            record = self._txns[txn_id]
            if record.status == _PENDING:
                record.status = INDETERMINATE
            if record.ops or record.status != ABORTED:
                txns.append(record)
        return VerifyHistory(txns=txns, meta=dict(self.meta),
                             final=dict(self.final))
