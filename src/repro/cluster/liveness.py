"""Store liveness: epoch-based heartbeats over the simulated network.

Models CockroachDB's store-liveness fabric: every store periodically
heartbeats every other store, and each observer independently tracks
when it last heard from each subject.  Because heartbeats ride the real
(simulated) network, *anything* that delays or drops messages — crashes,
partitions, one-way cuts, gray (slow) nodes, lossy WAN links — degrades
the observed liveness, not just explicit node death:

* **LIVE**    — a heartbeat arrived within ``suspect_after_ms``;
* **SUSPECT** — heartbeats are late but the store is not yet presumed
  dead (leases should move away, replicas should stay);
* **DEAD**    — nothing heard for ``time_until_store_dead_ms`` (CRDB's
  ``server.time_until_store_dead``): the replica allocator may now
  treat the store's replicas as lost and re-replicate elsewhere.

Heartbeats carry an **epoch**, incremented each time the node restarts,
so observers can distinguish "the same incarnation, delayed" from "a
new incarnation after a crash" — the basis for epoch-based leases.

Views are per-observer (store pairs), mirroring the directionality of
the fault surface: an asymmetrically partitioned node may look LIVE
from one side and DEAD from the other.  Cluster-level consumers (the
replicate queue) use :meth:`StoreLiveness.aggregate_status`, which
takes a majority vote among live observers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = ["LivenessStatus", "StoreLiveness"]


class LivenessStatus:
    LIVE = "live"
    SUSPECT = "suspect"
    DEAD = "dead"


class StoreLiveness:
    """Per-store-pair heartbeat tracking with LIVE/SUSPECT/DEAD states.

    ``time_until_store_dead_ms`` is the knob the paper's self-healing
    story hinges on: it trades repair latency against the churn of
    re-replicating a store that was merely slow to answer.
    """

    #: Default heartbeat period.
    HEARTBEAT_INTERVAL_MS = 100.0
    #: Default grace period before a quiet store turns SUSPECT
    #: (multiples of the heartbeat interval when not set explicitly).
    SUSPECT_MULTIPLE = 3.0
    #: Default ``server.time_until_store_dead`` analogue.
    TIME_UNTIL_STORE_DEAD_MS = 2000.0

    def __init__(self, cluster,
                 heartbeat_interval_ms: float = HEARTBEAT_INTERVAL_MS,
                 suspect_after_ms: Optional[float] = None,
                 time_until_store_dead_ms: float = TIME_UNTIL_STORE_DEAD_MS):
        self.cluster = cluster
        self.sim = cluster.sim
        self.network = cluster.network
        self.heartbeat_interval_ms = heartbeat_interval_ms
        self.suspect_after_ms = (
            suspect_after_ms if suspect_after_ms is not None
            else self.SUSPECT_MULTIPLE * heartbeat_interval_ms)
        self.time_until_store_dead_ms = time_until_store_dead_ms
        if self.time_until_store_dead_ms <= self.suspect_after_ms:
            raise ValueError("time_until_store_dead must exceed the "
                             "suspect threshold")
        #: observer node_id -> subject node_id -> (epoch, last_heard_ms)
        self._views: Dict[int, Dict[int, Tuple[int, float]]] = {}
        #: Node incarnations; bumped on restart.
        self._epochs: Dict[int, int] = {}
        #: (time_ms, node_id, old_status, new_status) aggregate changes.
        self.transitions: List[Tuple[float, int, str, str]] = []
        self._last_aggregate: Dict[int, str] = {}
        self._registry = cluster.sim.obs.registry
        self._c_heartbeats = self._registry.counter(
            "liveness.heartbeats_sent")
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Begin heartbeating from every node; idempotent."""
        if self._started:
            return
        self._started = True
        now = self.sim.now
        nodes = list(self.cluster.nodes)
        for node in nodes:
            self._epochs.setdefault(node.node_id, 1)
        for node in nodes:
            view = self._views.setdefault(node.node_id, {})
            for other in nodes:
                if other.node_id != node.node_id:
                    # Grace period: nobody is declared dead at startup.
                    view[other.node_id] = (self._epochs[other.node_id], now)
        self.network.on_node_restart(self._on_restart)
        for node in nodes:
            self._status_gauge(node.node_id).set(
                self._STATUS_LEVELS[LivenessStatus.LIVE])
        # Stagger senders deterministically so heartbeats don't arrive
        # as one synchronized burst per interval.
        for index, node in enumerate(nodes):
            offset = (index + 1) * self.heartbeat_interval_ms / (len(nodes) + 1)
            self.sim.spawn(self._heartbeat_loop(node, offset),
                           name=f"liveness-hb@{node.node_id}")

    def _heartbeat_loop(self, node, initial_offset_ms: float):
        yield self.sim.sleep(initial_offset_ms)
        while True:
            if node.alive and not self.network.node_is_dead(node.node_id):
                epoch = self._epochs.get(node.node_id, 1)
                send = self.network.send
                receive = self._receive
                inc = self._c_heartbeats.inc
                node_id = node.node_id
                for other in self.cluster.nodes:
                    if other.node_id == node_id or not other.alive:
                        continue
                    inc()
                    send(node, other, receive, other.node_id, node_id, epoch)
            yield self.sim.sleep(self.heartbeat_interval_ms)

    def _receive(self, observer_id: int, subject_id: int, epoch: int) -> None:
        view = self._views.setdefault(observer_id, {})
        known_epoch, _last = view.get(subject_id, (0, 0.0))
        if epoch >= known_epoch:
            view[subject_id] = (epoch, self.sim.now)

    def _on_restart(self, node_id: int) -> None:
        """A crashed node came back: new epoch, fresh local view.

        The restarted node's own observations are stale (it heard
        nothing while down); resetting them to "just heard" prevents it
        from spuriously declaring the whole cluster dead on boot.
        """
        self._epochs[node_id] = self._epochs.get(node_id, 1) + 1
        now = self.sim.now
        view = self._views.setdefault(node_id, {})
        for other in self.cluster.nodes:
            if other.node_id != node_id:
                epoch, _last = view.get(other.node_id, (0, now))
                view[other.node_id] = (epoch, now)

    # -- queries -----------------------------------------------------------

    #: Gauge encoding of the status enum (0 reads as healthy).
    _STATUS_LEVELS = {LivenessStatus.LIVE: 0, LivenessStatus.SUSPECT: 1,
                      LivenessStatus.DEAD: 2}

    @property
    def heartbeats_sent(self) -> int:
        return int(self._c_heartbeats.value)

    def _status_gauge(self, node_id: int):
        return self._registry.gauge("liveness.status", node=node_id)

    def epoch(self, node_id: int) -> int:
        return self._epochs.get(node_id, 1)

    def status(self, subject_id: int,
               from_node_id: Optional[int] = None) -> str:
        """Liveness of ``subject_id`` as seen from one observer.

        A store always considers itself LIVE (it is running this code).
        Unknown subjects are SUSPECT: absence of evidence is not yet
        evidence of death.
        """
        if from_node_id is None or from_node_id == subject_id:
            if from_node_id == subject_id:
                return LivenessStatus.LIVE
            return self.aggregate_status(subject_id)
        record = self._views.get(from_node_id, {}).get(subject_id)
        if record is None:
            return LivenessStatus.SUSPECT
        _epoch, last_heard = record
        elapsed = self.sim.now - last_heard
        if elapsed > self.time_until_store_dead_ms:
            return LivenessStatus.DEAD
        if elapsed > self.suspect_after_ms:
            return LivenessStatus.SUSPECT
        return LivenessStatus.LIVE

    def aggregate_status(self, subject_id: int) -> str:
        """Cluster-level verdict: a majority vote among live observers.

        Stands in for the quorum-backed liveness range: no single
        observer's network position can unilaterally declare a store
        dead.  Observers that are themselves down get no vote.
        """
        votes: List[str] = []
        for node in self.cluster.nodes:
            if node.node_id == subject_id or not node.alive:
                continue
            if self.network.node_is_dead(node.node_id):
                continue
            votes.append(self.status(subject_id, from_node_id=node.node_id))
        if not votes:
            return LivenessStatus.SUSPECT
        majority = len(votes) // 2 + 1
        dead = sum(1 for v in votes if v == LivenessStatus.DEAD)
        non_live = sum(1 for v in votes if v != LivenessStatus.LIVE)
        if dead >= majority:
            verdict = LivenessStatus.DEAD
        elif non_live >= majority:
            verdict = LivenessStatus.SUSPECT
        else:
            verdict = LivenessStatus.LIVE
        previous = self._last_aggregate.get(subject_id, LivenessStatus.LIVE)
        if verdict != previous:
            self.transitions.append(
                (self.sim.now, subject_id, previous, verdict))
            self._last_aggregate[subject_id] = verdict
            self._registry.counter("liveness.transitions",
                                   to=verdict).inc()
            self._status_gauge(subject_id).set(self._STATUS_LEVELS[verdict])
        return verdict

    def live_node_ids(self) -> List[int]:
        return [n.node_id for n in self.cluster.nodes
                if n.alive
                and self.aggregate_status(n.node_id) == LivenessStatus.LIVE]

    def dead_node_ids(self) -> List[int]:
        return [n.node_id for n in self.cluster.nodes
                if self.aggregate_status(n.node_id) == LivenessStatus.DEAD]
