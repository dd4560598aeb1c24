"""Cluster-level admission controller.

The controller is the single attachment point for every backpressure
mechanism: per-(tenant, region) gateway admission queues, per-store
work queues, and per-tenant retry budgets.  It is installed on a
cluster with :func:`install_admission`; ``cluster.admission`` stays
``None`` by default so benchmarks and goldens that predate admission
control are byte-identical (the hot paths do one ``is None`` check).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .queue import (GATEWAY_METRICS, STORE_METRICS, Priority, SlotGranter,
                    WorkQueue)
from .retry_budget import RetryBudget
from .tokens import TokenBucket

__all__ = ["AdmissionConfig", "AdmissionController", "install_admission"]


@dataclass
class AdmissionConfig:
    """Knobs for the admission subsystem (docs/API.md)."""

    #: Sustained gateway admission rate per (tenant, region) queue.
    rate_per_s: float = 1000.0
    #: Token-bucket burst per queue (requests admitted instantly after idle).
    burst: float = 32.0
    #: Bounded gateway queue depth; arrivals beyond it are rejected.
    max_queue_depth: int = 64
    #: Per-store evaluation slots and per-op service time: the store's
    #: sustained capacity is ``slots * 1000 / service_ms`` ops/s.
    store_slots: int = 2
    store_service_ms: float = 1.0
    #: The store work queues always model the store's evaluation
    #: capacity; this switches the *protections* on top of it (gateway
    #: queues and retry budgets), so an "admission disabled" ablation
    #: faces the same capacity with no backpressure (the
    #: congestion-collapse baseline).
    protections: bool = True


class AdmissionController:
    """Facade owning all admission state for one cluster."""

    def __init__(self, cluster, config: Optional[AdmissionConfig] = None):
        self.cluster = cluster
        self.sim = cluster.sim
        self.config = config or AdmissionConfig()
        self.registry = cluster.sim.obs.registry
        self._queues: Dict[Tuple[str, str], WorkQueue] = {}
        self._store_queues: Dict[int, WorkQueue] = {}
        self._budgets: Dict[str, RetryBudget] = {}

    # -- gateway admission -------------------------------------------------

    def queue_for(self, tenant: str, region: str) -> WorkQueue:
        key = (tenant, region)
        queue = self._queues.get(key)
        if queue is None:
            cfg = self.config
            name = f"{tenant}/{region}"
            bucket = TokenBucket(cfg.rate_per_s, cfg.burst, now_ms=self.sim.now)
            queue = WorkQueue(self.sim, bucket, name, "admission",
                              GATEWAY_METRICS, max_depth=cfg.max_queue_depth,
                              registry=self.registry, queue=name)
            self._queues[key] = queue
        return queue

    def admit_co(self, tenant: str, region: str,
                 priority: int = Priority.NORMAL,
                 deadline_ms: Optional[float] = None):
        """Coroutine: wait for gateway admission (``yield from``).

        Returns the queue wait in ms; raises ``AdmissionRejectedError``
        or ``DeadlineExceededError`` when the request is shed."""
        if not self.config.protections:
            return 0.0
        wait_ms = yield self.queue_for(tenant, region).admit(
            priority=priority, deadline_ms=deadline_ms)
        return wait_ms

    # -- store work queues -------------------------------------------------

    def queue_for_store(self, node_id: int) -> WorkQueue:
        queue = self._store_queues.get(node_id)
        if queue is None:
            slots = SlotGranter(self.config.store_slots, self.registry.gauge(
                "store.slots_busy", node=node_id))
            where = f"store[{node_id}]"
            queue = WorkQueue(self.sim, slots, where, where, STORE_METRICS,
                              registry=self.registry, node=node_id)
            self._store_queues[node_id] = queue
        return queue

    def store_work(self, node_id: int, deadline_ms: Optional[float] = None):
        """Coroutine: run one gated unit of store work (``yield from``):
        wait for an evaluation slot, hold it for ``store_service_ms``,
        release it.  Raises :class:`DeadlineExceededError` if the
        deadline passes while queued."""
        queue = self.queue_for_store(node_id)
        yield queue.admit(deadline_ms=deadline_ms)
        try:
            yield self.sim.sleep(self.config.store_service_ms)
        finally:
            queue.release()

    # -- retry budgets -----------------------------------------------------

    def retry_budget(self, tenant: str = "default"
                     ) -> Optional[RetryBudget]:
        if not self.config.protections:
            return None
        budget = self._budgets.get(tenant)
        if budget is None:
            budget = RetryBudget(tenant=tenant, registry=self.registry)
            self._budgets[tenant] = budget
        return budget

    # -- introspection -----------------------------------------------------

    def totals(self) -> Dict[str, int]:
        """Deterministic admit/reject/shed totals across all queues."""
        return {kind: int(sum(
                    counter.value for counter in
                    self.registry.instruments(name=f"admission.{kind}")))
                for kind in ("admitted", "rejected", "shed")}


def install_admission(cluster, config: Optional[AdmissionConfig] = None
                      ) -> AdmissionController:
    """Attach an :class:`AdmissionController` to ``cluster`` and return it."""
    controller = AdmissionController(cluster, config)
    cluster.admission = controller
    return controller
