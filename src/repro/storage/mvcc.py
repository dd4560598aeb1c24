"""Multi-version concurrency control storage.

Each replica of a Range owns one :class:`MVCCStore`.  The store keeps,
per key, a list of committed versions (newest first) plus at most one
*write intent* — a provisional version laid down by an in-flight
transaction.  Raft applies the same logical commands to every replica's
store, so followers hold the data needed for follower reads.

The read path implements the paper's visibility rules:

* a read at ``ts`` returns the newest committed version ``<= ts``;
* an intent from another transaction at ``<= ts`` forces conflict
  resolution (:class:`~repro.errors.WriteIntentError`);
* a committed value or intent in ``(ts, ts + uncertainty]`` forces an
  uncertainty restart
  (:class:`~repro.errors.ReadWithinUncertaintyIntervalError`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..errors import (
    ReadWithinUncertaintyIntervalError,
    WriteIntentError,
    WriteTooOldError,
)
from ..obs import MetricsRegistry
from ..sim.clock import TS_ZERO, Timestamp

__all__ = ["MVCCStore", "Version", "Intent", "ReadResult"]


@dataclass(frozen=True, slots=True)
class Version:
    """A committed MVCC version of a key."""

    ts: Timestamp
    value: Any

    @property
    def is_tombstone(self) -> bool:
        return self.value is None


@dataclass(slots=True)
class Intent:
    """A provisional write by an in-flight transaction."""

    txn_id: int
    ts: Timestamp
    value: Any
    #: Node holding the transaction record (for conflict resolution).
    anchor_node_id: int = -1


@dataclass(frozen=True, slots=True)
class ReadResult:
    """Value returned by an MVCC read."""

    value: Any
    ts: Timestamp
    from_intent: bool = False

    @property
    def exists(self) -> bool:
        return self.value is not None


class _KeyHistory:
    """Version history of one key, packed into flat parallel arrays.

    Committed versions live in timestamp-ascending order across four
    lockstep columns: ``phys`` (C doubles), ``logs`` (C int64s),
    ``synth`` (byte flags) and ``values`` (payload objects).  Lookups
    bisect the ``phys`` array directly — a C-level scan over unboxed
    doubles, refined by logical tiebreak only inside a run of equal
    physicals — and no :class:`Timestamp`/:class:`Version` objects are
    allocated per stored version.  Timestamps are rematerialized only
    at the API boundary (read results, error payloads).
    """

    __slots__ = ("phys", "logs", "synth", "values", "intent")

    def __init__(self):
        self.phys = array("d")          # physical ms, ascending
        self.logs = array("q")          # logical tiebreaks
        self.synth = bytearray()        # synthetic bits
        self.values: List[Any] = []     # payloads (parallel)
        self.intent: Optional[Intent] = None

    @property
    def versions(self) -> List[Version]:
        """Materialized view of the packed columns (tests, digests,
        debugging — never the hot path)."""
        return [Version(Timestamp(p, log, bool(s)), v)
                for p, log, s, v in zip(self.phys, self.logs,
                                        self.synth, self.values)]

    def bisect_at_or_below(self, ts: Timestamp) -> int:
        """Rightmost insertion point for ``ts``: count of stored
        versions with timestamp ``<= ts``."""
        phys = self.phys
        p = ts.physical
        idx = bisect_right(phys, p)
        if idx and phys[idx - 1] == p:
            # Refine inside the run of equal physicals.
            logs = self.logs
            lo = bisect_left(phys, p)
            hi = idx
            tie = ts.logical
            while lo < hi:
                mid = (lo + hi) >> 1
                if logs[mid] <= tie:
                    lo = mid + 1
                else:
                    hi = mid
            return lo
        return idx

    def ts_at(self, idx: int) -> Timestamp:
        return Timestamp(self.phys[idx], self.logs[idx],
                         bool(self.synth[idx]))

    def newest_at_or_below(self, ts: Timestamp) -> Optional[Version]:
        idx = self.bisect_at_or_below(ts)
        if idx == 0:
            return None
        return Version(self.ts_at(idx - 1), self.values[idx - 1])

    def any_in_interval(self, lo: Timestamp, hi: Timestamp) -> Optional[Version]:
        """Newest committed version with ``lo < ts <= hi``, if any."""
        idx = self.bisect_at_or_below(hi)
        if idx == 0:
            return None
        ts = self.ts_at(idx - 1)
        return Version(ts, self.values[idx - 1]) if ts > lo else None

    def insert_at(self, ts: Timestamp, value: Any) -> None:
        idx = self.bisect_at_or_below(ts)
        self.phys.insert(idx, ts.physical)
        self.logs.insert(idx, ts.logical)
        self.synth.insert(idx, 1 if ts.synthetic else 0)
        self.values.insert(idx, value)


class MVCCStore:
    """Versioned key-value state for one replica of one Range.

    Storage activity counts onto ``registry`` — the simulation's shared
    one when a :class:`~repro.kv.replica.Replica` owns the store, a
    private one for a bare ``MVCCStore()`` (unit tests, micro-benchmarks).
    """

    def __init__(self, registry=None):
        self._data: Dict[Any, _KeyHistory] = {}
        self.registry = (registry if registry is not None
                         else MetricsRegistry())
        # Bound once, bumped inline: get / put_intent / resolve_intent
        # run ~100 times per TPC-C transaction.
        self._c_gets = self.registry.counter("mvcc.gets")
        self._c_laid = self.registry.counter("mvcc.intents_laid")
        self._c_resolved = self.registry.counter("mvcc.intents_resolved")

    def _history(self, key: Any) -> _KeyHistory:
        history = self._data.get(key)
        if history is None:
            history = _KeyHistory()
            self._data[key] = history
        return history

    # -- reads -------------------------------------------------------------

    def get(self, key: Any, ts: Timestamp, txn_id: Optional[int] = None,
            uncertainty_limit: Optional[Timestamp] = None) -> ReadResult:
        """Read ``key`` at ``ts``.

        ``txn_id`` lets a transaction read its own intents.
        ``uncertainty_limit`` is the upper bound of the reader's
        uncertainty interval; values in ``(ts, limit]`` raise
        :class:`ReadWithinUncertaintyIntervalError`.
        """
        self._c_gets.value += 1
        history = self._data.get(key)
        if history is None:
            return ReadResult(None, TS_ZERO)

        intent = history.intent
        if intent is not None:
            if txn_id is not None and intent.txn_id == txn_id:
                # Read-your-writes: a transaction sees its own intent.
                return ReadResult(intent.value, intent.ts, from_intent=True)
            if intent.ts <= ts:
                raise WriteIntentError(key, intent.txn_id, intent.ts)
            if uncertainty_limit is not None and intent.ts <= uncertainty_limit:
                # An uncertain intent is both uncertain and unresolved;
                # surface the intent conflict so the reader waits for the
                # writer, then retries with a bumped timestamp.
                raise WriteIntentError(key, intent.txn_id, intent.ts)

        if uncertainty_limit is not None:
            uidx = history.bisect_at_or_below(uncertainty_limit)
            if uidx:
                uncertain_ts = history.ts_at(uidx - 1)
                if uncertain_ts > ts:
                    raise ReadWithinUncertaintyIntervalError(
                        key, uncertain_ts, ts)

        idx = history.bisect_at_or_below(ts)
        if idx == 0:
            return ReadResult(None, TS_ZERO)
        value = history.values[idx - 1]
        if value is None:  # tombstone
            return ReadResult(None, history.ts_at(idx - 1))
        return ReadResult(value, history.ts_at(idx - 1))

    def intent_for(self, key: Any) -> Optional[Intent]:
        history = self._data.get(key)
        return history.intent if history else None

    def changed_in_interval(self, key: Any, lo: Timestamp, hi: Timestamp,
                            txn_id: Optional[int] = None) -> bool:
        """Did ``key`` gain a committed version or foreign intent in
        ``(lo, hi]``?  Used by read refreshes (paper §5.1 / §6.2)."""
        history = self._data.get(key)
        if history is None:
            return False
        if history.any_in_interval(lo, hi) is not None:
            return True
        intent = history.intent
        if intent is not None and intent.txn_id != txn_id and intent.ts <= hi:
            return True
        return False

    # -- writes ------------------------------------------------------------

    def check_write(self, key: Any, ts: Timestamp,
                    txn_id: int) -> Timestamp:
        """Validate a proposed write; returns the minimum legal timestamp.

        Raises :class:`WriteIntentError` when another transaction holds
        an intent on the key.  Raises :class:`WriteTooOldError` when a
        committed version exists at or above ``ts`` (the caller bumps
        the write timestamp and retries).
        """
        history = self._data.get(key)
        if history is None:
            return ts
        intent = history.intent
        if intent is not None and intent.txn_id != txn_id:
            raise WriteIntentError(key, intent.txn_id, intent.ts)
        phys = history.phys
        if phys:
            newest_p = phys[-1]
            if newest_p > ts.physical or (
                    newest_p == ts.physical
                    and history.logs[-1] >= ts.logical):
                raise WriteTooOldError(
                    key, history.ts_at(len(phys) - 1), ts)
        return ts

    def put_intent(self, key: Any, ts: Timestamp, value: Any, txn_id: int,
                   anchor_node_id: int = -1) -> None:
        """Lay down (or replace this transaction's own) intent."""
        history = self._history(key)
        intent = history.intent
        if intent is not None and intent.txn_id != txn_id:
            raise WriteIntentError(key, intent.txn_id, intent.ts)
        self._c_laid.value += 1
        history.intent = Intent(txn_id=txn_id, ts=ts, value=value,
                                anchor_node_id=anchor_node_id)

    def resolve_intent(self, key: Any, txn_id: int,
                       commit_ts: Optional[Timestamp]) -> bool:
        """Commit (at ``commit_ts``) or abort (``None``) an intent.

        Returns True if an intent belonging to ``txn_id`` was resolved.
        Intent resolution is idempotent: replicas may apply it after the
        intent is already gone.
        """
        history = self._data.get(key)
        if history is None or history.intent is None:
            return False
        if history.intent.txn_id != txn_id:
            return False
        intent = history.intent
        history.intent = None
        self._c_resolved.value += 1
        if commit_ts is not None:
            history.insert_at(commit_ts, intent.value)
        return True

    def put_committed(self, key: Any, ts: Timestamp, value: Any) -> None:
        """Directly write a committed version (bulk loads, test fixtures)."""
        self._history(key).insert_at(ts, value)

    def clone(self) -> "MVCCStore":
        """A deep copy of this store (Raft snapshot transfer).

        The packed columns are value arrays, so slicing duplicates the
        already-sorted history representation wholesale — nothing is
        re-encoded or re-sorted, and payload objects are shared.
        """
        other = MVCCStore(registry=self.registry)
        data = other._data
        for key, history in self._data.items():
            copied = _KeyHistory()
            copied.phys = history.phys[:]
            copied.logs = history.logs[:]
            copied.synth = history.synth[:]
            copied.values = history.values[:]
            intent = history.intent
            if intent is not None:
                copied.intent = Intent(
                    txn_id=intent.txn_id, ts=intent.ts, value=intent.value,
                    anchor_node_id=intent.anchor_node_id)
            data[key] = copied
        return other

    # -- range splits / merges ----------------------------------------------

    def extract(self, pred) -> Dict[Any, _KeyHistory]:
        """Remove and return every key history for which ``pred(key)``.

        Used by range splits/merges to move whole histories (committed
        versions *and* any applied intent) between the stores of two
        colocated replicas without copying or re-sorting anything.
        """
        moved: Dict[Any, _KeyHistory] = {}
        for key in [k for k in self._data if pred(k)]:
            moved[key] = self._data.pop(key)
        return moved

    def absorb(self, histories: Dict[Any, _KeyHistory]) -> None:
        """Adopt key histories produced by :meth:`extract`.

        The source and destination spans are disjoint by construction
        (a split point partitions the keyspace), so collisions indicate
        a bug and fail loudly.
        """
        for key, history in histories.items():
            if key in self._data:
                raise ValueError(f"absorb collision on key {key!r}")
            self._data[key] = history

    # -- introspection -------------------------------------------------------

    def keys(self) -> Iterable[Any]:
        """Live view of the stored keys (iteration order = insertion
        order).  A view, not a list: callers that only iterate or sort
        should not pay for a copy."""
        return self._data.keys()

    def version_count(self, key: Any) -> int:
        history = self._data.get(key)
        return len(history.phys) if history else 0

    def snapshot_at(self, ts: Timestamp) -> Dict[Any, Any]:
        """The committed state visible at ``ts`` (tests/debugging)."""
        out = {}
        for key, history in self._data.items():
            version = history.newest_at_or_below(ts)
            if version is not None and not version.is_tombstone:
                out[key] = version.value
        return out
