"""The nemesis: a declarative schedule of timed fault injections.

Faults are described as :class:`FaultEvent` records — a name, an inject
time and callable, and an optional heal time and callable — and the
:class:`Nemesis` arms them on the simulator's event heap.  Everything
runs through the cluster's :class:`~repro.sim.network.FaultPlane`, so a
schedule is deterministic under a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

__all__ = ["FaultEvent", "Nemesis"]


@dataclass
class FaultEvent:
    """One fault: inject at ``at_ms``, optionally heal at ``heal_at_ms``.

    Times are relative to the base passed to :meth:`Nemesis.schedule`
    (normally the start of the client workload).  ``inject``/``heal``
    are zero-argument callables mutating the fault plane.
    """

    name: str
    at_ms: float
    inject: Callable[[], None]
    heal_at_ms: Optional[float] = None
    heal: Optional[Callable[[], None]] = None


class Nemesis:
    """Arms fault events on the simulator and tracks what is active.

    The timeline (``(time_ms, "inject"|"heal", name)`` tuples) feeds the
    chaos report so availability dips can be correlated with faults.
    """

    def __init__(self, cluster, events: List[FaultEvent]):
        self.cluster = cluster
        self.sim = cluster.sim
        self.events = list(events)
        self.timeline: List[Tuple[float, str, str]] = []
        self._active: List[FaultEvent] = []

    def schedule(self, base_ms: Optional[float] = None) -> None:
        """Arm every event at ``base_ms + event.at_ms`` (base defaults
        to the current simulated time)."""
        base = self.sim.now if base_ms is None else base_ms
        for event in self.events:
            self.sim.call_at(base + event.at_ms, self._inject, event)
            if event.heal_at_ms is not None:
                self.sim.call_at(base + event.heal_at_ms, self._heal, event)

    def _record(self, action: str, name: str) -> None:
        self.timeline.append((self.sim.now, action, name))
        self.sim.obs.registry.counter("nemesis.events", action=action,
                                      fault=name).inc()

    def _inject(self, event: FaultEvent) -> None:
        event.inject()
        self._active.append(event)
        self._record("inject", event.name)

    def _heal(self, event: FaultEvent) -> None:
        if event in self._active:
            self._active.remove(event)
        if event.heal is not None:
            event.heal()
        self._record("heal", event.name)

    def heal_all(self, restart_dead: bool = True) -> None:
        """Run outstanding heals and scrub the fault plane completely —
        link cuts (region partitions included), loss, latency, gray
        nodes, and (unless ``restart_dead`` is False) dead nodes,
        restarted so they catch up.  Used before the final audit.  Repair scenarios pass
        ``restart_dead=False``: their node/region loss is *permanent*,
        and reviving the victims would hand the replicate queue its
        repair for free."""
        network = self.cluster.network
        for event in list(self._active):
            self._active.remove(event)
            if event.heal is not None:
                event.heal()
            self._record("heal", event.name)
        faults = network.faults
        faults.heal_all_links()
        # Clock faults heal with everything else: a restarted node is
        # presumed step-synced by NTP (no-op when no clock fault ran).
        self.cluster.clock.heal_all()
        if restart_dead:
            for node_id in list(faults.dead_nodes):
                network.restart_node(node_id)
        self._record("heal", "heal-all")

    @property
    def active_faults(self) -> List[str]:
        return [event.name for event in self._active]
