"""A replica: one node's copy of one Range's state.

Replicas apply replicated commands to their local MVCC store and serve
reads.  Leaseholder-only structures (timestamp cache, lock table) live
on the :class:`~repro.kv.range.Range` object, which represents the
leaseholder's view.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Optional, TYPE_CHECKING

from ..errors import (
    FollowerReadNotAvailableError,
    ReadWithinUncertaintyIntervalError,
)
from ..sim.clock import TS_ZERO, Timestamp
from ..storage.mvcc import MVCCStore, ReadResult
from .commands import (
    EpochOrderCommand,
    PutIntentCommand,
    ResolveIntentCommand,
    SetTxnRecordCommand,
    TxnStatus,
)

if TYPE_CHECKING:  # pragma: no cover
    from .range import Range

__all__ = ["Replica"]

_STATE = ("store", "txn_records", "epoch_orders")
_COMMANDS = frozenset((PutIntentCommand, ResolveIntentCommand,
                       SetTxnRecordCommand, EpochOrderCommand))


class Replica:
    """One node's participation in one Range.  Only the leaseholder
    applies a committed command as it learns it; any other replica
    queues it and applies the queue, in log order, when something next
    reads its state — most followers' state is never read."""

    #: A COMMITTED record is dropped once a later one commits this many
    #: ms (of commit timestamp) above it.  Its last reader is a re-sent
    #: one-phase write, which trails the first attempt by at most
    #: ``RPC_MAX_ATTEMPTS`` x ``RPC_TIMEOUT_MS`` plus backoff (< 16 s).
    COMMITTED_RECORD_TTL_MS = 60_000.0

    def __init__(self, rng: "Range", node) -> None:
        self.range = rng
        self.range_id = rng.range_id
        self.node = node
        self.store = MVCCStore(registry=rng.sim.obs.registry)
        #: Transaction records anchored on this range (replicated state):
        #: txn id -> the applied record command itself.
        self.txn_records: Dict[int, SetTxnRecordCommand] = {}
        #: The COMMITTED records in apply order: the queue they expire
        #: from.
        self._committed: deque = deque()
        #: Epoch-OCC commit-order decisions anchored on this range
        #: (replicated state): epoch -> ordered txn-id tuple.
        self.epoch_orders: Dict[int, tuple] = {}
        #: Learned, unapplied commands (log order); _STATE held meanwhile.
        self._queue: list = []
        self._held: tuple = ()

    def __getattr__(self, name: str) -> Any:
        """A _STATE attribute is deleted (never popped from ``__dict__``,
        which de-specialises every load) only while commands are queued:
        apply them, in log order, then read it."""
        if name not in _STATE or not self._queue:
            raise AttributeError(name)
        queue, self._queue = self._queue, []
        self.store, self.txn_records, self.epoch_orders = self._held
        self._held = ()
        for done, command in enumerate(queue):
            try:
                self._apply(command)
            except Exception as exc:
                # The failed entry and the rest stay queued: every later
                # read fails too, never as getattr's "no such attribute".
                self._hold(queue[done:])
                raise RuntimeError(f"r{self.range_id} n{self.node.node_id}"
                                   f" cannot apply {command!r}") from exc
        return getattr(self, name)

    def _hold(self, queue: list) -> None:
        """Queue ``queue``, holding _STATE aside until something reads it."""
        self._held = (self.store, self.txn_records, self.epoch_orders)
        del self.store, self.txn_records, self.epoch_orders
        self._queue = queue

    # -- raft apply -----------------------------------------------------------

    def apply(self, command: Any) -> None:
        """Learn a committed Raft command: the leaseholder applies it
        now, releasing the lock-table waiters on a resolved key; any
        other replica queues it (and releases nothing when it applies)."""
        if self.node.node_id != self.range.leaseholder_node_id:
            if type(command) not in _COMMANDS and command != ("noop",):
                raise TypeError(f"unknown command {command!r}")
            if self._queue:
                self._queue.append(command)
            else:
                self._hold([command])
            return
        self._apply(command)
        if isinstance(command, ResolveIntentCommand):
            self.range.lock_table.release(command.key, command.txn_id)

    def _apply(self, command: Any) -> None:
        if isinstance(command, PutIntentCommand):
            if self.committed(command.txn_id) is not None:
                # A committed transaction writes nothing more: this is a
                # re-sent one-phase write whose first attempt applied.
                return
            self.store.put_intent(command.key, command.ts, command.value,
                                  command.txn_id, command.anchor_node_id)
        elif isinstance(command, ResolveIntentCommand):
            self.store.resolve_intent(command.key, command.txn_id,
                                      command.commit_ts)
        elif isinstance(command, SetTxnRecordCommand):
            if self.committed(command.txn_id) is not None:
                return  # final: the first commit timestamp stands
            self.txn_records[command.txn_id] = command
            if (command.status == TxnStatus.COMMITTED
                    and command.commit_ts is not None):
                self._retain_committed(command)
        elif isinstance(command, EpochOrderCommand):
            self.epoch_orders[command.epoch] = command.txn_ids
        elif command == ("noop",):
            pass
        else:
            raise TypeError(f"unknown command {command!r}")

    def committed(self, txn_id: int) -> Optional[SetTxnRecordCommand]:
        """``txn_id``'s record, if this replica holds it COMMITTED."""
        record = self.txn_records.get(txn_id)
        if record is not None and record.status == TxnStatus.COMMITTED:
            return record
        return None

    def _retain_committed(self, record: SetTxnRecordCommand) -> None:
        """Queue a fresh COMMITTED record for expiry and drop the ones
        it outdates — decided by the log alone, so every replica keeps
        the same records at the same log position."""
        committed = self._committed
        committed.append(record)
        horizon = record.commit_ts.physical - self.COMMITTED_RECORD_TTL_MS
        while committed[0].commit_ts.physical < horizon:
            self.txn_records.pop(committed.popleft().txn_id, None)

    def install(self, source: "Replica") -> None:
        """Take a snapshot of ``source``'s replicated state — store,
        transaction records, committed queue, epoch orders — in place of
        this replica's, dropping the queued entries it covers."""
        self._queue, self._held = [], ()
        self.store = source.store.clone()
        self.txn_records = dict(source.txn_records)
        self._committed = deque(source._committed)
        self.epoch_orders = dict(source.epoch_orders)

    def absorb_records(self, source: "Replica") -> None:
        """Copy in ``source``'s transaction records: a split child taking
        its parent's, a merge folding the right side's in."""
        records = self.txn_records  # applies this replica's queue first
        for txn_id, record in source.txn_records.items():
            records.setdefault(txn_id, record)
        self._committed.extend(source._committed)

    # -- follower reads ---------------------------------------------------------

    @property
    def closed_ts(self) -> Timestamp:
        peer = self.range.group.peers.get(self.node.node_id)
        return peer.closed_ts if peer else TS_ZERO

    @property
    def is_leaseholder(self) -> bool:
        return self.node.node_id == self.range.leaseholder_node_id

    def follower_read(self, key: Any, ts: Timestamp,
                      txn_id: Optional[int] = None,
                      uncertainty_limit: Optional[Timestamp] = None,
                      allow_server_side_bump: bool = False):
        """Serve a read from this (possibly non-leaseholder) replica.

        Requires the whole visibility window — the read timestamp and, if
        present, the uncertainty interval — to be closed locally
        (paper §6.2.1).  Raises
        :class:`FollowerReadNotAvailableError` otherwise;
        :class:`~repro.errors.WriteIntentError` escapes to the caller,
        which redirects the read to the leaseholder for conflict
        resolution (paper §5.1.1).

        Returns ``(ReadResult, effective_read_ts)``.  When the caller's
        transaction has no other spans it sets ``allow_server_side_bump``
        and uncertainty restarts are retried locally at the uncertain
        value's timestamp, avoiding a second WAN round trip.
        """
        required = ts
        if uncertainty_limit is not None and uncertainty_limit > required:
            required = uncertainty_limit
        if not self.range.descriptor.contains_key(key):
            # The key split/merged away: this replica's store no longer
            # holds its history, and serving would read a phantom
            # absence.  Surface as not-available so the caller falls
            # back to (leaseholder) routing, which re-resolves.
            raise FollowerReadNotAvailableError(
                self.range_id, required, self.closed_ts)
        if self.closed_ts < required:
            raise FollowerReadNotAvailableError(
                self.range_id, required, self.closed_ts)
        while True:
            try:
                result = self.store.get(key, ts, txn_id=txn_id,
                                        uncertainty_limit=uncertainty_limit)
            except ReadWithinUncertaintyIntervalError as err:
                if not allow_server_side_bump:
                    raise
                ts = err.value_ts
                continue
            return result, ts

    def max_servable_ts(self, key: Any) -> Timestamp:
        """Highest timestamp a (stale) read of ``key`` can use locally.

        The bounded-staleness negotiation (paper §5.3.2): the minimum of
        the local closed timestamp and just-below any conflicting intent.
        """
        servable = self.closed_ts
        intent = self.store.intent_for(key)
        if intent is not None and intent.ts <= servable:
            servable = intent.ts.prev()
        return servable
