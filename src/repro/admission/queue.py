"""One admission work queue in front of a granter.

Requests wait in (priority, FIFO) order until the granter hands them a
unit: a :class:`~repro.admission.tokens.TokenBucket` grants tokens at a
sustained rate (the SQL gateway), a :class:`SlotGranter` grants
evaluation slots that finished work releases (a store).  A bounded
queue rejects arrivals beyond its depth, and a waiter whose deadline
passes before its grant is shed without consuming a unit — the store
never burns capacity on answers nobody is waiting for.  Every decision
is a deterministic function of sim time and arrival order, so overload
sweeps are byte-reproducible.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

from ..errors import AdmissionRejectedError, DeadlineExceededError
from ..obs import MetricsRegistry
from ..sim.core import Future, Simulator

__all__ = ["GATEWAY_METRICS", "Priority", "STORE_METRICS", "SlotGranter",
           "WorkQueue"]

#: Instrument names (admitted, shed, depth gauge, wait histogram) of the
#: two kinds of queue.
GATEWAY_METRICS = ("admission.admitted", "admission.shed",
                   "admission.queue_depth", "admission.wait_ms")
STORE_METRICS = ("store.work_admitted", "store.work_shed",
                 "store.queue_depth", "store.wait_ms")


class Priority:
    """Smaller value admits first; FIFO sequence breaks ties."""
    HIGH = 0
    NORMAL = 1
    LOW = 2


class _Waiter:
    __slots__ = ("priority", "seq", "future", "deadline_ms",
                 "enqueued_ms", "expiry_event", "done")

    def __init__(self, priority, seq, future, deadline_ms, enqueued_ms):
        self.priority = priority
        self.seq = seq
        self.future = future
        self.deadline_ms = deadline_ms
        self.enqueued_ms = enqueued_ms
        self.expiry_event = None
        self.done = False

    def __lt__(self, other: "_Waiter") -> bool:
        return (self.priority, self.seq) < (other.priority, other.seq)


class SlotGranter:
    """``slots`` concurrent units, each held until :meth:`release`.

    Time alone never frees a slot (``time_until`` is ``None``): the
    queue's :meth:`WorkQueue.release` grants the freed one."""

    def __init__(self, slots: int, busy_gauge):
        self.slots = slots
        self.busy = 0
        self._g_busy = busy_gauge

    def try_take(self, now_ms: float) -> bool:
        if self.busy >= self.slots:
            return False
        self.busy += 1
        self._g_busy.set(self.busy)
        return True

    def time_until(self, n: float, now_ms: float) -> None:
        return None

    def release(self) -> None:
        self.busy -= 1
        self._g_busy.set(self.busy)


class WorkQueue:
    """Priority queue of waiters in front of one granter.

    The granter answers ``try_take(now_ms)`` (grant one unit now?) and
    ``time_until(1.0, now_ms)`` (ms until a unit could be granted, or
    ``None`` when only a :meth:`release` frees one).  ``admit()``
    returns a :class:`Future` that resolves with the queue wait in ms
    once a unit is granted, or rejects with:

    - :class:`AdmissionRejectedError` — ``max_depth`` live waiters are
      already queued (fail fast, the cheapest possible "no");
    - :class:`DeadlineExceededError` — the deadline passed before the
      grant (shed; no unit is consumed for it).

    ``name`` names the queue in a rejection, ``op`` in a deadline error;
    ``metrics`` is :data:`GATEWAY_METRICS` or :data:`STORE_METRICS` and
    ``labels`` label every instrument.
    """

    def __init__(self, sim: Simulator, granter, name: str, op: str,
                 metrics, max_depth: Optional[int] = None, registry=None,
                 **labels):
        self.sim = sim
        self.granter = granter
        self.name = name
        self.op = op
        self.max_depth = max_depth
        self._waiters: List[_Waiter] = []
        self._seq = 0
        self._pump_event = None
        #: Waiters not yet granted or shed (the heap also holds expired
        #: ones until ``_pump`` reaches them); kept where ``done`` flips,
        #: so the depth bound and gauge never recount the heap.
        self._live = 0
        registry = registry if registry is not None else MetricsRegistry()
        admitted, shed, depth, wait = metrics
        self._c_admitted = registry.counter(admitted, **labels)
        if max_depth is not None:
            self._c_rejected = registry.counter(
                "admission.rejected", reason="queue_full", **labels)
        self._c_shed = registry.counter(shed, **labels)
        self._g_depth = registry.gauge(depth, **labels)
        self._h_wait = registry.histogram(wait, **labels)

    # -- public API --------------------------------------------------------

    def admit(self, priority: int = Priority.NORMAL,
              deadline_ms: Optional[float] = None) -> Future:
        """Future resolving (with queue wait ms) when a unit is granted."""
        now = self.sim.now
        fut = Future(self.sim)
        if deadline_ms is not None and now >= deadline_ms:
            self._c_shed.inc()
            fut.reject(DeadlineExceededError(self.op, deadline_ms, now))
            return fut
        if not self._live and self.granter.try_take(now):
            # Fast path: unit in hand, nobody queued ahead.
            self._c_admitted.inc()
            self._h_wait.observe(0.0)
            fut.resolve(0.0)
            return fut
        if self.max_depth is not None and self._live >= self.max_depth:
            self._c_rejected.inc()
            fut.reject(AdmissionRejectedError(
                self.name, f"queue full (depth {self.max_depth})"))
            return fut
        waiter = _Waiter(priority, self._seq, fut, deadline_ms, now)
        self._seq += 1
        heapq.heappush(self._waiters, waiter)
        self._live += 1
        if deadline_ms is not None:
            waiter.expiry_event = self.sim.call_after(
                deadline_ms - now, self._expire, waiter)
        self._g_depth.set(self._live)
        self._schedule_pump()
        return fut

    def release(self) -> None:
        """Return a :class:`SlotGranter` unit and grant it onward."""
        self.granter.release()
        self._pump()

    # -- internals ---------------------------------------------------------

    def _expire(self, waiter: _Waiter) -> None:
        if waiter.done:
            return
        waiter.done = True
        self._live -= 1
        self._c_shed.inc()
        waiter.future.reject(DeadlineExceededError(
            self.op, waiter.deadline_ms, self.sim.now))
        # Lazily removed from the heap by _pump, or here, all at once,
        # when nobody live is left.
        if not self._live:
            self._waiters.clear()
        self._g_depth.set(self._live)

    def _schedule_pump(self) -> None:
        if self._pump_event is not None or not self._live:
            return
        delay = self.granter.time_until(1.0, self.sim.now)
        if delay is not None:
            self._pump_event = self.sim.call_after(delay, self._pump)

    def _pump(self) -> None:
        self._pump_event = None
        now = self.sim.now
        waiters = self._waiters
        while waiters:
            waiter = waiters[0]
            if waiter.done:
                heapq.heappop(waiters)
                continue
            if not self.granter.try_take(now):
                break
            heapq.heappop(waiters)
            waiter.done = True
            self._live -= 1
            if waiter.expiry_event is not None:
                self.sim.cancel(waiter.expiry_event)
            wait_ms = now - waiter.enqueued_ms
            self._c_admitted.inc()
            self._h_wait.observe(wait_ms)
            waiter.future.resolve(wait_ms)
        self._g_depth.set(self._live)
        self._schedule_pump()
