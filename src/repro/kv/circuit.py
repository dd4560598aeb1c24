"""Per-replica circuit breaker for the DistSender.

Mirrors CockroachDB's per-replica circuit breakers: a replica that
repeatedly fails RPCs is skipped for a cooldown window, after which a
single probe request is let through; a successful probe closes the
breaker, a failed one re-opens it.  This keeps gray (slow-but-alive)
and freshly-dead replicas off the hot path without waiting out a full
RPC timeout per request.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional

from ..obs import MetricsRegistry

__all__ = ["CircuitBreaker", "BreakerState"]


class BreakerState:
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Failure-counting breaker for one destination node."""

    def __init__(self, failure_threshold: int = 3,
                 cooldown_ms: float = 500.0,
                 on_transition: Optional[Callable[[str, str], None]] = None,
                 rng: Optional[random.Random] = None,
                 probe_jitter: float = 0.0):
        self.failure_threshold = failure_threshold
        self.cooldown_ms = cooldown_ms
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at_ms = 0.0
        self.trips = 0
        self._probe_inflight = False
        #: Half-open probe scheduling jitter: each time the breaker
        #: opens, the next probe window is stretched by a factor drawn
        #: from ``rng`` in ``[1, 1 + probe_jitter]``.  Seeded through
        #: the simulation RNG so a fleet of breakers opened by the same
        #: fault does not probe in lockstep, while every run stays
        #: byte-deterministic.  Default 0.0 keeps the legacy fixed
        #: cooldown.
        self._rng = rng
        self.probe_jitter = probe_jitter
        self._cooldown_scale = 1.0
        #: Called with (old_state, new_state) on every state change so
        #: the owner can mirror breaker activity onto the metrics
        #: registry without the breaker importing it.
        self._on_transition = on_transition

    def _set_state(self, new_state: str) -> None:
        if new_state == self.state:
            return
        old_state, self.state = self.state, new_state
        if self._on_transition is not None:
            self._on_transition(old_state, new_state)

    def allow(self, now_ms: float) -> bool:
        """May a request be sent now?  Transitions OPEN → HALF_OPEN when
        the cooldown has elapsed (the caller becomes the probe)."""
        if self.state == BreakerState.CLOSED:
            return True
        if self.state == BreakerState.OPEN:
            if now_ms - self.opened_at_ms < self.cooldown_ms * self._cooldown_scale:
                return False
            self._set_state(BreakerState.HALF_OPEN)
            self._probe_inflight = False
        # HALF_OPEN: exactly one probe at a time.
        if self._probe_inflight:
            return False
        self._probe_inflight = True
        return True

    def record_success(self) -> None:
        self._set_state(BreakerState.CLOSED)
        self.consecutive_failures = 0
        self._probe_inflight = False

    def _draw_cooldown_scale(self) -> None:
        if self._rng is not None and self.probe_jitter > 0.0:
            self._cooldown_scale = 1.0 + self.probe_jitter * self._rng.random()
        else:
            self._cooldown_scale = 1.0

    def record_failure(self, now_ms: float) -> None:
        self.consecutive_failures += 1
        self._probe_inflight = False
        if self.state == BreakerState.HALF_OPEN:
            # Failed probe: back to a full cooldown.
            self._set_state(BreakerState.OPEN)
            self.opened_at_ms = now_ms
            self._draw_cooldown_scale()
            return
        if (self.state == BreakerState.CLOSED
                and self.consecutive_failures >= self.failure_threshold):
            self._set_state(BreakerState.OPEN)
            self.opened_at_ms = now_ms
            self._draw_cooldown_scale()
            self.trips += 1

    def reset(self) -> None:
        """Forget all failure state (the destination node restarted).

        Also clears a stranded in-flight probe: if the probe RPC was
        abandoned when the node died, ``_probe_inflight`` would
        otherwise deny every request forever.  ``trips`` is a lifetime
        counter and survives."""
        self._set_state(BreakerState.CLOSED)
        self.consecutive_failures = 0
        self._probe_inflight = False

    @property
    def is_open(self) -> bool:
        return self.state == BreakerState.OPEN

    def blocked(self, now_ms: float) -> bool:
        """Non-mutating probe-free check (for replica *selection*; use
        :meth:`allow` on the actual send path)."""
        return (self.state == BreakerState.OPEN
                and now_ms - self.opened_at_ms
                < self.cooldown_ms * self._cooldown_scale)


class BreakerSet:
    """Lazy per-node breaker collection.

    Every breaker state change is mirrored onto ``registry`` (a private
    one when none is given): counters ``breaker.transitions{node,to}``
    and a per-node state gauge (``breaker.open{node}``: 1 while open,
    else 0), so chaos scenarios can see *when* and *where* breakers
    fired, not just the lifetime trip total.
    """

    def __init__(self, failure_threshold: int = 3,
                 cooldown_ms: float = 500.0, registry=None,
                 rng: Optional[random.Random] = None,
                 probe_jitter: float = 0.0):
        self.failure_threshold = failure_threshold
        self.cooldown_ms = cooldown_ms
        self.registry = (registry if registry is not None
                         else MetricsRegistry())
        #: Shared seeded RNG for half-open probe jitter (None = no jitter).
        self.rng = rng
        self.probe_jitter = probe_jitter
        self._breakers: Dict[int, CircuitBreaker] = {}
        #: Bumped on every breaker state transition (cache invalidation).
        self.generation = 0
        self._open_nodes: set = set()

    @property
    def any_open(self) -> bool:
        """Is any breaker in the OPEN state?  While False, ``blocked``
        is False for every node regardless of the clock, so replica
        selection is independent of breaker state (routing caches key
        on this)."""
        return bool(self._open_nodes)

    def _transition_hook(self, node_id: int):
        registry = self.registry

        def on_transition(old_state: str, new_state: str) -> None:
            self.generation += 1
            if new_state == BreakerState.OPEN:
                self._open_nodes.add(node_id)
            else:
                self._open_nodes.discard(node_id)
            registry.counter("breaker.transitions",
                             node=node_id, to=new_state).inc()
            registry.gauge("breaker.open", node=node_id).set(
                1 if new_state == BreakerState.OPEN else 0)
        return on_transition

    def for_node(self, node_id: int) -> CircuitBreaker:
        breaker = self._breakers.get(node_id)
        if breaker is None:
            breaker = CircuitBreaker(self.failure_threshold,
                                     self.cooldown_ms,
                                     on_transition=self._transition_hook(node_id),
                                     rng=self.rng,
                                     probe_jitter=self.probe_jitter)
            self._breakers[node_id] = breaker
        return breaker

    def reset(self, node_id: int) -> None:
        """Reset the breaker for ``node_id`` (no-op if none exists)."""
        breaker = self._breakers.get(node_id)
        if breaker is not None:
            breaker.reset()

    def total_trips(self) -> int:
        return sum(b.trips for b in self._breakers.values())


__all__.append("BreakerSet")
