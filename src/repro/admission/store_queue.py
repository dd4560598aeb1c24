"""Per-store work queue gating KV command evaluation.

Each store exposes ``slots`` concurrent evaluation slots; every gated
command holds a slot for ``service_ms`` (its modeled CPU/IO cost).
When all slots are busy, work queues in (priority, FIFO) order — a hot
leaseholder backpressures callers instead of melting.  Work whose
deadline expires while queued is shed without ever occupying a slot,
which is the property that prevents congestion collapse: the store
never burns capacity on answers nobody is waiting for.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

from ..errors import AdmissionRejectedError, DeadlineExceededError
from ..obs import MetricsRegistry
from ..sim.core import Future, Simulator
from .queue import Priority, _Waiter

__all__ = ["StoreWorkQueue"]


class StoreWorkQueue:
    """Slot-based work queue for one store (node)."""

    def __init__(self, sim: Simulator, node_id: int, slots: int = 2,
                 service_ms: float = 1.0, max_depth: Optional[int] = None,
                 registry=None):
        self.sim = sim
        self.node_id = node_id
        self.slots = slots
        self.service_ms = service_ms
        self.max_depth = max_depth
        self._active = 0
        self._seq = 0
        self._waiters: List[_Waiter] = []
        #: Work not yet granted a slot or shed (the heap also holds
        #: expired work until ``_grant`` pops it); kept where ``done``
        #: flips, so the depth gauge never recounts the heap.
        self.queued = 0
        registry = registry if registry is not None else MetricsRegistry()
        self._c_admitted = registry.counter("store.work_admitted",
                                            node=node_id)
        self._c_shed = registry.counter("store.work_shed", node=node_id)
        self._c_rejected = registry.counter("store.work_rejected",
                                            node=node_id)
        self._g_depth = registry.gauge("store.queue_depth", node=node_id)
        self._g_busy = registry.gauge("store.slots_busy", node=node_id)
        self._h_wait = registry.histogram("store.wait_ms", node=node_id)

    @property
    def capacity_per_s(self) -> float:
        """Sustained evaluation throughput of this store (ops/s)."""
        return self.slots * 1000.0 / self.service_ms

    # -- slot protocol -----------------------------------------------------

    def work(self, service_ms: Optional[float] = None,
             deadline_ms: Optional[float] = None,
             priority: int = Priority.NORMAL):
        """Coroutine: acquire a slot, hold it for the service time,
        release.  Use as ``yield from wq.work(...)`` inside a serve
        path.  Raises :class:`DeadlineExceededError` if the deadline
        passes while queued and :class:`AdmissionRejectedError` when
        ``max_depth`` is bounded and exceeded."""
        yield self._acquire(priority, deadline_ms)
        try:
            yield self.sim.sleep(self.service_ms
                                 if service_ms is None else service_ms)
        finally:
            self._release()

    def _acquire(self, priority: int, deadline_ms: Optional[float]) -> Future:
        now = self.sim.now
        fut = Future(self.sim)
        if deadline_ms is not None and now >= deadline_ms:
            self._c_shed.inc()
            fut.reject(DeadlineExceededError(
                f"store[{self.node_id}]", deadline_ms, now))
            return fut
        if self._active < self.slots and not self._waiters:
            self._active += 1
            self._c_admitted.inc()
            self._h_wait.observe(0.0)
            self._g_busy.set(self._active)
            fut.resolve(0.0)
            return fut
        if self.max_depth is not None and self.queued >= self.max_depth:
            self._c_rejected.inc()
            fut.reject(AdmissionRejectedError(
                f"store[{self.node_id}]",
                f"work queue full (depth {self.max_depth})"))
            return fut
        work = _Waiter(priority, self._seq, fut, deadline_ms, now)
        self._seq += 1
        heapq.heappush(self._waiters, work)
        self.queued += 1
        if deadline_ms is not None:
            work.expiry_event = self.sim.call_after(
                deadline_ms - now, self._expire, work)
        self._g_depth.set(self.queued)
        return fut

    def _release(self) -> None:
        self._active -= 1
        self._grant()

    def _expire(self, work: _Waiter) -> None:
        if work.done:
            return
        work.done = True
        self.queued -= 1
        self._c_shed.inc()
        work.future.reject(DeadlineExceededError(
            f"store[{self.node_id}]", work.deadline_ms, self.sim.now))
        self._g_depth.set(self.queued)

    def _grant(self) -> None:
        now = self.sim.now
        while self._active < self.slots and self._waiters:
            work = heapq.heappop(self._waiters)
            if work.done:
                continue
            work.done = True
            self.queued -= 1
            if work.expiry_event is not None:
                self.sim.cancel(work.expiry_event)
            self._active += 1
            self._c_admitted.inc()
            self._h_wait.observe(now - work.enqueued_ms)
            work.future.resolve(now - work.enqueued_ms)
        self._g_depth.set(self.queued)
        self._g_busy.set(self._active)
