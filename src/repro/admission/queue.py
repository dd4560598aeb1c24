"""SQL-gateway admission queue.

Requests arrive open-loop; the queue admits them at the token bucket's
sustained rate, orders waiters by priority (FIFO within a priority
class), bounds its depth (excess arrivals are rejected immediately),
and sheds waiters whose deadline expires before a token frees up.
Every decision is a deterministic function of sim time and arrival
order, so overload sweeps are byte-reproducible.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

from ..errors import AdmissionRejectedError, DeadlineExceededError
from ..obs import MetricsRegistry
from ..sim.core import Future, Simulator
from .tokens import TokenBucket

__all__ = ["AdmissionQueue", "Priority"]


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


class AdmissionQueue:
    """Token-bucket admission queue for one (tenant, region) pair.

    ``admit()`` returns a :class:`Future` that resolves with the queue
    wait in ms once the request is admitted, or rejects with:

    - :class:`AdmissionRejectedError` — queue already holds
      ``max_depth`` waiters (fail fast, the cheapest possible "no");
    - :class:`DeadlineExceededError` — the waiter's deadline passed
      while queued (shed; no token is consumed for it).

    ``ordering="fifo"`` ignores priorities (everything is NORMAL).
    """

    def __init__(self, sim: Simulator, name: str, bucket: TokenBucket,
                 max_depth: int = 64, ordering: str = "priority",
                 registry=None):
        self.sim = sim
        self.name = name
        self.bucket = bucket
        self.max_depth = max_depth
        self.ordering = ordering
        self._waiters: List[_Waiter] = []
        self._seq = 0
        self._pump_event = None
        #: Waiters not yet admitted or shed (the heap also holds expired
        #: ones until ``_pump`` reaches them); kept where ``done`` flips.
        self._live = 0
        registry = registry if registry is not None else MetricsRegistry()
        self._c_admitted = registry.counter("admission.admitted", queue=name)
        self._c_rejected = registry.counter("admission.rejected", queue=name,
                                            reason="queue_full")
        self._c_shed = registry.counter("admission.shed", queue=name)
        self._g_depth = registry.gauge("admission.queue_depth", queue=name)
        self._h_wait = registry.histogram("admission.wait_ms", queue=name)

    # -- public API --------------------------------------------------------

    def admit(self, priority: int = Priority.NORMAL,
              deadline_ms: Optional[float] = None) -> Future:
        """Future resolving (with queue wait ms) when a token is granted."""
        if self.ordering == "fifo":
            priority = Priority.NORMAL
        now = self.sim.now
        fut = Future(self.sim)
        if deadline_ms is not None and now >= deadline_ms:
            fut.reject(DeadlineExceededError("admission", deadline_ms, now))
            return fut
        if not self._waiters and self.bucket.try_take(now):
            # Fast path: token in hand, nobody queued ahead.
            self._c_admitted.inc()
            self._h_wait.observe(0.0)
            fut.resolve(0.0)
            return fut
        if len(self._waiters) >= self.max_depth:
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
        self._g_depth.set(len(self._waiters))
        self._schedule_pump()
        return fut

    # -- internals ---------------------------------------------------------

    def _expire(self, waiter: _Waiter) -> None:
        if waiter.done:
            return
        waiter.done = True
        self._live -= 1
        self._c_shed.inc()
        waiter.future.reject(DeadlineExceededError(
            "admission", waiter.deadline_ms, self.sim.now))
        # Lazily removed from the heap by _pump, or here, all at once,
        # when nobody live is left; the gauge reflects live waiters now.
        if not self._live:
            self._waiters.clear()
        self._g_depth.set(self._live)

    def _schedule_pump(self) -> None:
        if self._pump_event is not None or not self._waiters:
            return
        delay = self.bucket.time_until(1.0, self.sim.now)
        self._pump_event = self.sim.call_after(delay, self._pump)

    def _pump(self) -> None:
        self._pump_event = None
        now = self.sim.now
        while self._waiters:
            waiter = self._waiters[0]
            if waiter.done:
                heapq.heappop(self._waiters)
                continue
            if not self.bucket.try_take(now):
                break
            heapq.heappop(self._waiters)
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
