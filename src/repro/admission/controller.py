"""Cluster-level admission controller.

The controller is the single attachment point for every backpressure
mechanism: per-(tenant, region) gateway admission queues, per-store
work queues, and per-tenant retry budgets.  It is installed on a
cluster with :func:`install_admission`; ``cluster.admission`` stays
``None`` by default so benchmarks and goldens that predate admission
control are byte-identical (the hot paths do one ``is None`` check).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .queue import AdmissionQueue, Priority
from .retry_budget import RetryBudget
from .store_queue import StoreWorkQueue
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
    #: "priority" (HIGH < NORMAL < LOW, FIFO within a class) or "fifo".
    ordering: str = "priority"
    #: Per-tenant rate overrides (tenant -> rate_per_s).
    tenant_rates: Dict[str, float] = field(default_factory=dict)
    #: Per-store evaluation slots and per-op service time: the store's
    #: sustained capacity is ``slots * 1000 / service_ms`` ops/s.
    store_slots: int = 2
    store_service_ms: float = 1.0
    #: Bounded store queue depth (None = unbounded, deadline-shed only).
    store_max_depth: Optional[int] = None
    #: Retry-budget sizing (gRPC-style: each success deposits a credit).
    retry_budget_tokens: float = 10.0
    retry_success_credit: float = 0.1
    #: Protection switches.  The store work queues always model the
    #: store's evaluation capacity; these gate the *protections* on top
    #: of it, so an "admission disabled" ablation faces the same
    #: capacity with no backpressure (the congestion-collapse baseline).
    gateway_enabled: bool = True
    retry_budget_enabled: bool = True


class AdmissionController:
    """Facade owning all admission state for one cluster."""

    def __init__(self, cluster, config: Optional[AdmissionConfig] = None):
        self.cluster = cluster
        self.sim = cluster.sim
        self.config = config or AdmissionConfig()
        self.registry = cluster.sim.obs.registry
        self._queues: Dict[Tuple[str, str], AdmissionQueue] = {}
        self._store_queues: Dict[int, StoreWorkQueue] = {}
        self._budgets: Dict[str, RetryBudget] = {}

    # -- gateway admission -------------------------------------------------

    def queue_for(self, tenant: str, region: str) -> AdmissionQueue:
        key = (tenant, region)
        queue = self._queues.get(key)
        if queue is None:
            cfg = self.config
            rate = cfg.tenant_rates.get(tenant, cfg.rate_per_s)
            bucket = TokenBucket(rate, cfg.burst, now_ms=self.sim.now)
            queue = AdmissionQueue(self.sim, f"{tenant}/{region}", bucket,
                                   max_depth=cfg.max_queue_depth,
                                   ordering=cfg.ordering,
                                   registry=self.registry)
            self._queues[key] = queue
        return queue

    def admit_co(self, tenant: str, region: str,
                 priority: int = Priority.NORMAL,
                 deadline_ms: Optional[float] = None):
        """Coroutine: wait for gateway admission (``yield from``).

        Returns the queue wait in ms; raises ``AdmissionRejectedError``
        or ``DeadlineExceededError`` when the request is shed."""
        if not self.config.gateway_enabled:
            return 0.0
        wait_ms = yield self.queue_for(tenant, region).admit(
            priority=priority, deadline_ms=deadline_ms)
        return wait_ms

    # -- store work queues -------------------------------------------------

    def store_queue(self, node_id: int) -> StoreWorkQueue:
        queue = self._store_queues.get(node_id)
        if queue is None:
            cfg = self.config
            queue = StoreWorkQueue(self.sim, node_id, slots=cfg.store_slots,
                                   service_ms=cfg.store_service_ms,
                                   max_depth=cfg.store_max_depth,
                                   registry=self.registry)
            self._store_queues[node_id] = queue
        return queue

    def store_work(self, node_id: int, deadline_ms: Optional[float] = None,
                   priority: int = Priority.NORMAL,
                   service_ms: Optional[float] = None):
        """Coroutine: run one gated unit of store work (``yield from``)."""
        yield from self.store_queue(node_id).work(
            service_ms=service_ms, deadline_ms=deadline_ms,
            priority=priority)

    # -- retry budgets -----------------------------------------------------

    def retry_budget(self, tenant: str = "default"
                     ) -> Optional[RetryBudget]:
        if not self.config.retry_budget_enabled:
            return None
        budget = self._budgets.get(tenant)
        if budget is None:
            cfg = self.config
            budget = RetryBudget(max_tokens=cfg.retry_budget_tokens,
                                 success_credit=cfg.retry_success_credit,
                                 tenant=tenant, registry=self.registry)
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
