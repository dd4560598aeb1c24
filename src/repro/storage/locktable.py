"""Lock wait-queues for intent conflicts.

When a request encounters another transaction's intent it queues here;
the queue is drained when the intent is resolved (committed or aborted).
This models CockroachDB's lock table / contention handling on the
leaseholder: conflicting readers and writers block until the holder
finishes, which is exactly the behaviour responsible for the contended
tails measured in Fig 5.

A coarse wait-for check aborts waiters whose wait would form a cycle
(deadlock), standing in for CRDB's distributed deadlock detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set

from ..errors import TransactionAbortedError
from ..sim.clock import Timestamp
from ..sim.core import Future, Simulator

__all__ = ["LockTable", "LockHolder", "WaitGraph"]


@dataclass(frozen=True)
class LockHolder:
    """The transaction currently holding the lock on a key."""

    txn_id: int
    ts: Timestamp


class WaitGraph:
    """Cluster-global transaction wait-for edges.

    Lock tables are per-range, but deadlock cycles span ranges (e.g.
    two multi-range writers acquiring locks in opposite orders), so the
    wait-for graph must be shared — this models CRDB's distributed
    deadlock detection.  A transaction may wait on several holders at
    once (parallel batch writes), hence edge *sets*."""

    def __init__(self):
        #: waiting txn -> set of holder txns
        self._edges: Dict[int, Set[int]] = {}

    def would_cycle(self, waiter: int, holder: int) -> bool:
        """Would adding waiter->holder close a cycle (holder ~> waiter)?"""
        seen: Set[int] = set()
        stack = [holder]
        while stack:
            current = stack.pop()
            if current == waiter:
                return True
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self._edges.get(current, ()))
        return False

    def add_edge(self, waiter: int, holder: int) -> None:
        self._edges.setdefault(waiter, set()).add(holder)

    def remove_edge(self, waiter: int, holder: int) -> None:
        edges = self._edges.get(waiter)
        if edges is not None:
            edges.discard(holder)
            if not edges:
                del self._edges[waiter]


class LockTable:
    """Per-range registry of waiters blocked on intents."""

    def __init__(self, sim: Simulator, wait_graph: Optional[WaitGraph] = None):
        self.sim = sim
        #: key -> list of (waiting_txn_id, future)
        self._waiters: Dict[Any, List] = {}
        #: key -> current holder (covers both in-flight proposals and
        #: applied intents, keeping evaluation-time latching and
        #: replicated locks in one structure)
        self._holders: Dict[Any, LockHolder] = {}
        self._graph = wait_graph if wait_graph is not None else WaitGraph()
        #: name -> its ``lock.*`` counter, bound on first use (a run
        #: without a lock wait exports no ``lock.*`` row).
        self._counters: Dict[str, Any] = {}

    def _count(self, name: str) -> None:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = self.sim.obs.registry.counter(
                name)
        counter.value += 1

    def note_holder(self, key: Any, txn_id: int, ts: Timestamp) -> None:
        self._holders[key] = LockHolder(txn_id=txn_id, ts=ts)

    def holder_of(self, key: Any) -> Optional[LockHolder]:
        return self._holders.get(key)

    def wait_for(self, key: Any, waiter_txn_id: Optional[int]) -> Future:
        """Block until the intent on ``key`` is resolved.

        Rejects with :class:`TransactionAbortedError` if waiting would
        create a deadlock cycle, even across ranges (the request that
        closes the cycle loses).
        """
        fut = Future(self.sim)
        holder = self._holders.get(key)
        if holder is None:
            fut.resolve(None)
            return fut
        if waiter_txn_id is not None:
            if self._graph.would_cycle(waiter_txn_id, holder.txn_id):
                self._count("lock.deadlocks")
                fut.reject(TransactionAbortedError(
                    f"deadlock: txn {waiter_txn_id} waiting on {holder.txn_id}"))
                return fut
            self._graph.add_edge(waiter_txn_id, holder.txn_id)
        self._count("lock.waits")
        self._waiters.setdefault(key, []).append((waiter_txn_id, fut, holder.txn_id))
        return fut

    def release(self, key: Any, txn_id: int) -> None:
        """The intent on ``key`` held by ``txn_id`` has been resolved."""
        holder = self._holders.get(key)
        if holder is not None and holder.txn_id == txn_id:
            del self._holders[key]
        waiters = self._waiters.pop(key, [])
        for waiter_txn_id, fut, held_by in waiters:
            if waiter_txn_id is not None:
                self._graph.remove_edge(waiter_txn_id, held_by)
            if not fut.done:
                fut.resolve(None)

    def cancel_wait(self, key: Any, waiter_txn_id: int) -> None:
        """A waiter aborted while queued: drop its entry and wait-for
        edges for ``key`` so a stale edge cannot fabricate a deadlock
        cycle against transactions that are no longer waiting."""
        waiters = self._waiters.get(key)
        if not waiters:
            return
        remaining = []
        for entry in waiters:
            entry_txn_id, fut, held_by = entry
            if entry_txn_id == waiter_txn_id:
                self._graph.remove_edge(entry_txn_id, held_by)
                if not fut.done:
                    fut.reject(TransactionAbortedError(
                        f"txn {waiter_txn_id} abandoned its wait on {key!r}"))
            else:
                remaining.append(entry)
        if remaining:
            self._waiters[key] = remaining
        else:
            del self._waiters[key]

    def waiter_count(self, key: Any) -> int:
        return len(self._waiters.get(key, []))

    def is_quiescent(self) -> bool:
        """No holders and no waiters: nothing in-flight straddles this
        range (merge-safety precondition)."""
        return not self._holders and not self._waiters

    def move_entries(self, pred, other: "LockTable") -> None:
        """Move holders and wait-queues for keys matching ``pred`` to
        ``other`` (a range split moving locked keys to the child range).

        Waiter futures and wait-for-graph edges move untouched — the
        blocked coroutines keep sleeping on the same futures and are
        released when the intent resolution applies on the new owner.
        """
        for key in [k for k in self._holders if pred(k)]:
            other._holders[key] = self._holders.pop(key)
        for key in [k for k in self._waiters if pred(k)]:
            other._waiters.setdefault(key, []).extend(
                self._waiters.pop(key))
