"""Admission control and overload protection.

CRDB-style backpressure threaded through every layer of the stack:

- :class:`WorkQueue` — one (priority, FIFO) queue of waiters in front
  of a granter, shedding waiters whose deadline passes first.  At the
  SQL gateway a :class:`TokenBucket` grants at a sustained rate per
  (tenant, region) and the queue's depth is bounded; at a store a
  :class:`SlotGranter` grants evaluation slots, so a hot leaseholder
  queues (and sheds expired work) instead of melting.
- :class:`RetryBudget` — per-tenant retry throttling so retry storms
  cannot turn a transient overload into a metastable failure.
- :class:`AdmissionController` — the per-cluster facade wiring the
  pieces together; installed via :func:`install_admission` and kept
  ``None`` by default so the fast path is untouched when disabled.
"""

from .tokens import TokenBucket
from .queue import Priority, SlotGranter, WorkQueue
from .retry_budget import RetryBudget
from .controller import AdmissionConfig, AdmissionController, install_admission

__all__ = [
    "TokenBucket",
    "WorkQueue",
    "SlotGranter",
    "Priority",
    "RetryBudget",
    "AdmissionConfig",
    "AdmissionController",
    "install_admission",
]
