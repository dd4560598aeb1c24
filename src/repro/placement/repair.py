"""Replica repair: the replicate queue (paper §2.3, §4).

The paper's survivability goals are *continuously maintained*: when a
store dies, the replica allocator notices (via store liveness) and
re-replicates the lost replicas onto constraint-satisfying,
diversity-maximizing survivors.  This module is the reproduction's
version of CockroachDB's replicate queue:

* every ``interval_ms`` it scans the ranges under management,
* diffs each range's placement against its zone config and the
  cluster-level liveness view, and
* enqueues prioritized repair actions, executed strictly one at a time
  per range through the safe membership pipeline
  (:meth:`repro.kv.range.Range.add_replica_safely` — learner join,
  leader-driven snapshot, catch-up, promote).

Priorities follow CRDB's allocator: get the lease off a dying
leaseholder first (so the range stays available *during* repair), then
restore the voter set, then non-voters, then cosmetic placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

from ..cluster.liveness import LivenessStatus, StoreLiveness
from ..errors import ConfigurationError, RangeUnavailableError
from ..obs import MetricsRegistry
from ..raft.group import ReplicaType
from ..raft.membership import ConfigChangeError
from ..sim.network import NetworkUnavailableError
from .allocator import Allocator
from .zoneconfig import ZoneConfig

__all__ = [
    "RepairAction",
    "RepairActionKind",
    "RepairMetrics",
    "ReplicateQueue",
    "placement_violations",
]


class RepairActionKind:
    """Action kinds, listed in descending priority."""

    TRANSFER_LEASE = "transfer_lease"            # off a SUSPECT/DEAD holder
    REPLACE_DEAD_VOTER = "replace_dead_voter"
    UP_REPLICATE = "up_replicate"                # voter deficit, none dead
    REPLACE_DEAD_NON_VOTER = "replace_dead_non_voter"
    DOWN_REPLICATE = "down_replicate"            # stale/excess replica
    RESTORE_LEASE_PREFERENCE = "restore_lease_preference"


#: kind -> priority (lower runs first).
ACTION_PRIORITY: Dict[str, int] = {
    RepairActionKind.TRANSFER_LEASE: 0,
    RepairActionKind.REPLACE_DEAD_VOTER: 1,
    RepairActionKind.UP_REPLICATE: 2,
    RepairActionKind.REPLACE_DEAD_NON_VOTER: 3,
    RepairActionKind.DOWN_REPLICATE: 4,
    RepairActionKind.RESTORE_LEASE_PREFERENCE: 5,
}


@dataclass
class RepairAction:
    kind: str
    range_id: int
    #: The replica being replaced/removed, or the lease-transfer target.
    node_id: Optional[int] = None

    @property
    def priority(self) -> int:
        return ACTION_PRIORITY[self.kind]


class RepairMetrics:
    """Observability for the repair subsystem.

    The ``repair.*`` instruments on the shared metrics registry
    (per-kind action/failure counters, an under-replication gauge, a
    time-to-repair histogram, a scan counter): the queue writes through
    the ``record_*`` methods, tests and harness reports read the
    properties.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = (registry if registry is not None
                         else MetricsRegistry())

    def _by_kind(self, name: str) -> Dict[str, int]:
        return {dict(inst.labels)["kind"]: int(inst.value)
                for inst in self.registry.instruments(name=name)}

    #: kind -> successfully completed actions.
    @property
    def actions(self) -> Dict[str, int]:
        return self._by_kind("repair.actions")

    #: kind -> failed attempts (retried on a later scan).
    @property
    def failures(self) -> Dict[str, int]:
        return self._by_kind("repair.failures")

    #: Gauge: ranges whose live voter count is below target (last scan).
    @property
    def under_replicated_ranges(self) -> int:
        return int(self.registry.gauge("repair.under_replicated_ranges").value)

    #: Per-range ms from first-broken scan to the scan that found it
    #: healthy again (the time-to-repair histogram's samples).
    @property
    def time_to_repair_ms(self) -> List[float]:
        return list(self.registry.histogram("repair.time_to_repair_ms").samples)

    def record_scan(self, under_replicated: int) -> None:
        self.registry.counter("repair.scans").inc()
        self.registry.gauge("repair.under_replicated_ranges").set(
            under_replicated)

    def record_time_to_repair(self, ms: float) -> None:
        self.registry.histogram("repair.time_to_repair_ms").observe(ms)

    def record_action(self, kind: str) -> None:
        self.registry.counter("repair.actions", kind=kind).inc()

    def record_failure(self, kind: str) -> None:
        self.registry.counter("repair.failures", kind=kind).inc()

    def total_actions(self) -> int:
        return sum(self.actions.values())


def placement_violations(rng, config: ZoneConfig, cluster,
                         liveness: Optional[StoreLiveness] = None
                         ) -> List[str]:
    """Audit a range's placement against its zone config.

    Constraints whose region no longer has any usable node are skipped —
    after a permanent region loss they are unsatisfiable, and the repair
    goal becomes "fully replicated on the survivors".
    """
    def usable(node) -> bool:
        if not node.alive or cluster.network.node_is_dead(node.node_id):
            return False
        if liveness is not None:
            return (liveness.aggregate_status(node.node_id)
                    != LivenessStatus.DEAD)
        return True

    violations: List[str] = []
    voters = rng.group.voters()
    non_voters = rng.group.non_voters()

    for peer in voters + non_voters:
        if not usable(peer.node):
            violations.append(
                f"{rng.name}: replica on unusable node n{peer.node.node_id}")

    if len(voters) != config.num_voters:
        violations.append(
            f"{rng.name}: {len(voters)} voters, want {config.num_voters}")
    total = len(voters) + len(non_voters)
    usable_regions = {n.locality.region for n in cluster.nodes if usable(n)}
    # Replica slots homed in lost regions cannot be filled; the
    # achievable total shrinks by the unsatisfiable per-region counts.
    lost_slots = sum(count for region, count in config.constraints.items()
                     if region not in usable_regions)
    want_total = max(config.num_voters, config.num_replicas - lost_slots)
    if total != want_total:
        violations.append(
            f"{rng.name}: {total} replicas, want {want_total}")

    by_region: Dict[str, List] = {}
    for peer in voters + non_voters:
        by_region.setdefault(peer.node.locality.region, []).append(peer)
    for region, want in sorted(config.constraints.items()):
        if region not in usable_regions:
            continue
        have = len(by_region.get(region, []))
        if have < want:
            violations.append(
                f"{rng.name}: region {region} has {have} replicas, "
                f"constraint wants {want}")

    # Diversity: within a region, two replicas may share a zone only if
    # no other zone of that region has a free usable node.
    member_ids = {p.node.node_id for p in voters + non_voters}
    for region, peers in sorted(by_region.items()):
        zones: Dict[str, int] = {}
        for peer in peers:
            zones[peer.node.locality.zone] = (
                zones.get(peer.node.locality.zone, 0) + 1)
        crowded = any(count > 1 for count in zones.values())
        if crowded:
            free_zones = {
                n.locality.zone for n in cluster.nodes
                if usable(n) and n.locality.region == region
                and n.node_id not in member_ids
                and n.locality.zone not in zones}
            if free_zones:
                violations.append(
                    f"{rng.name}: region {region} stacks replicas in one "
                    f"zone while zones {sorted(free_zones)} are free")

    lh_id = rng.leaseholder_node_id
    if lh_id is None:
        violations.append(f"{rng.name}: no leaseholder")
    else:
        lh_peer = rng.group.peers.get(lh_id)
        if lh_peer is None or lh_peer.replica_type != ReplicaType.VOTER:
            violations.append(
                f"{rng.name}: leaseholder n{lh_id} is not a voter")
        elif not usable(lh_peer.node):
            violations.append(
                f"{rng.name}: leaseholder n{lh_id} is unusable")
        else:
            for region in config.lease_preferences:
                if region not in usable_regions:
                    continue
                if lh_peer.node.locality.region != region and any(
                        p.node.locality.region == region and usable(p.node)
                        for p in voters):
                    violations.append(
                        f"{rng.name}: lease on n{lh_id} "
                        f"({lh_peer.node.locality.region}) despite live "
                        f"voter in preferred region {region}")
                break
    return violations


class ReplicateQueue:
    """Periodic placement repair for a set of managed ranges."""

    #: Default scan cadence (CRDB's replicate queue is timer-driven too).
    INTERVAL_MS = 250.0

    def __init__(self, cluster, liveness: StoreLiveness,
                 interval_ms: float = INTERVAL_MS):
        self.cluster = cluster
        self.sim = cluster.sim
        self.liveness = liveness
        self.interval_ms = interval_ms
        self.metrics = RepairMetrics(cluster.sim.obs.registry)
        self.allocator = Allocator(cluster)
        #: range_id -> (Range, ZoneConfig)
        self._managed: Dict[int, Tuple[object, ZoneConfig]] = {}
        #: Ranges with an in-flight repair chain (no overlapping repairs).
        self._busy: set = set()
        #: range_id -> sim time the range was first found broken.
        self._broken_since: Dict[int, float] = {}
        self._started = False
        self._stopped = False

    def manage(self, rng, config: ZoneConfig) -> None:
        self._managed[rng.range_id] = (rng, config)

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.liveness.start()

        def loop() -> Generator:
            while not self._stopped:
                yield self.sim.sleep(self.interval_ms)
                self.scan()

        self.sim.spawn(loop(), name="replicate-queue")

    def stop(self) -> None:
        self._stopped = True

    # -- scanning ----------------------------------------------------------

    def scan(self) -> int:
        """One pass over every managed range; returns actions enqueued."""
        enqueued = 0
        under_replicated = 0
        for range_id, (rng, config) in sorted(self._managed.items()):
            live_voters = sum(
                1 for p in rng.group.voters() if self._status(p.node)
                != LivenessStatus.DEAD)
            if live_voters < config.num_voters:
                under_replicated += 1
            if range_id in self._busy:
                continue
            actions = self.plan(rng, config)
            if not actions:
                broken_at = self._broken_since.pop(range_id, None)
                if broken_at is not None:
                    self.metrics.record_time_to_repair(
                        self.sim.now - broken_at)
                continue
            self._broken_since.setdefault(range_id, self.sim.now)
            enqueued += len(actions)
            self._busy.add(range_id)
            self.sim.spawn(self._repair_range(rng, config, actions),
                           name=f"repair-{rng.name}")
        self.metrics.record_scan(under_replicated)
        return enqueued

    def _status(self, node) -> str:
        if not node.alive:
            return LivenessStatus.DEAD
        return self.liveness.aggregate_status(node.node_id)

    def plan(self, rng, config: ZoneConfig) -> List[RepairAction]:
        """Diff one range's placement against config + liveness."""
        actions: List[RepairAction] = []
        voters = rng.group.voters()
        non_voters = rng.group.non_voters()
        status = {p.node.node_id: self._status(p.node)
                  for p in voters + non_voters}

        lh_id = rng.leaseholder_node_id
        if lh_id is not None and status.get(lh_id) != LivenessStatus.LIVE:
            actions.append(RepairAction(
                RepairActionKind.TRANSFER_LEASE, rng.range_id))

        dead_voters = [p for p in voters
                       if status[p.node.node_id] == LivenessStatus.DEAD]
        for peer in sorted(dead_voters, key=lambda p: p.node.node_id):
            actions.append(RepairAction(
                RepairActionKind.REPLACE_DEAD_VOTER, rng.range_id,
                peer.node.node_id))
        if not dead_voters and len(voters) < config.num_voters:
            for _ in range(config.num_voters - len(voters)):
                actions.append(RepairAction(
                    RepairActionKind.UP_REPLICATE, rng.range_id))

        dead_non_voters = [p for p in non_voters
                           if status[p.node.node_id] == LivenessStatus.DEAD]
        for peer in sorted(dead_non_voters, key=lambda p: p.node.node_id):
            actions.append(RepairAction(
                RepairActionKind.REPLACE_DEAD_NON_VOTER, rng.range_id,
                peer.node.node_id))

        if not dead_voters and len(voters) > config.num_voters:
            victim = self._down_replicate_victim(rng, voters, status)
            if victim is not None:
                actions.append(RepairAction(
                    RepairActionKind.DOWN_REPLICATE, rng.range_id, victim))

        if (lh_id is not None and status.get(lh_id) == LivenessStatus.LIVE
                and not dead_voters):
            target = self._lease_preference_target(rng, config, status)
            if target is not None:
                actions.append(RepairAction(
                    RepairActionKind.RESTORE_LEASE_PREFERENCE,
                    rng.range_id, target))

        actions.sort(key=lambda a: (a.priority, a.node_id or 0))
        return actions

    def _down_replicate_victim(self, rng, voters, status) -> Optional[int]:
        """Pick the most redundant live voter to shed (never the lease)."""
        candidates = [p for p in voters
                      if p.node.node_id != rng.leaseholder_node_id
                      and status[p.node.node_id] == LivenessStatus.LIVE]
        if not candidates:
            return None

        def redundancy(peer) -> tuple:
            others = [p for p in voters if p is not peer]
            diversity = sum(peer.node.locality.diversity_from(
                o.node.locality) for o in others)
            # Least diverse (most redundant) first; stable by node id.
            return (diversity, peer.node.node_id)

        return min(candidates, key=redundancy).node.node_id

    def _lease_preference_target(self, rng, config: ZoneConfig,
                                 status) -> Optional[int]:
        lh_peer = rng.group.peers.get(rng.leaseholder_node_id)
        for region in config.lease_preferences:
            in_region = [
                p for p in rng.group.voters()
                if p.node.locality.region == region
                and status.get(p.node.node_id) == LivenessStatus.LIVE
                and rng.group.log_complete(p)]
            if lh_peer is not None and lh_peer.node.locality.region == region:
                return None  # already satisfied
            if in_region:
                best = max(in_region,
                           key=lambda p: (p.last_term, p.last_index,
                                          -p.node.node_id))
                return best.node.node_id
            if any(self._status(n) != LivenessStatus.DEAD
                   for n in self.cluster.nodes
                   if n.locality.region == region):
                return None  # region alive but no eligible voter yet
        return None

    # -- execution ---------------------------------------------------------

    def _repair_range(self, rng, config: ZoneConfig,
                      actions: List[RepairAction]) -> Generator:
        try:
            for action in actions:
                try:
                    yield from self._execute(rng, config, action)
                except (ConfigChangeError, ConfigurationError,
                        RangeUnavailableError, NetworkUnavailableError):
                    # Best-effort: count it, drop the rest of this
                    # chain, and let the next scan re-plan from the
                    # range's current state.
                    self.metrics.record_failure(action.kind)
                    return None
                self.metrics.record_action(action.kind)
        finally:
            self._busy.discard(rng.range_id)
        return None

    def _execute(self, rng, config: ZoneConfig,
                 action: RepairAction) -> Generator:
        if action.kind == RepairActionKind.TRANSFER_LEASE:
            lh_id = rng.leaseholder_node_id
            if lh_id is None or self.cluster.network.node_is_dead(lh_id):
                # Dead holder: non-cooperative failover among survivors.
                if not rng.maybe_failover(force=True):
                    raise RangeUnavailableError(
                        f"{rng.name}: no eligible lease target")
            else:
                # SUSPECT holder, still reachable: cooperative handoff
                # to the best live, log-complete voter.
                candidates = [
                    p for p in rng.group.voters()
                    if p.node.node_id != lh_id
                    and self._status(p.node) == LivenessStatus.LIVE
                    and rng.group.log_complete(p)]
                if not candidates:
                    raise RangeUnavailableError(
                        f"{rng.name}: no live voter to take the lease")
                preferred = [p for p in candidates
                             if p.node.locality.region
                             in config.lease_preferences]
                pool = preferred or candidates
                best = max(pool, key=lambda p: (p.last_term, p.last_index,
                                                -p.node.node_id))
                rng.transfer_lease(best.node.node_id)
        elif action.kind in (RepairActionKind.REPLACE_DEAD_VOTER,
                             RepairActionKind.UP_REPLICATE,
                             RepairActionKind.REPLACE_DEAD_NON_VOTER):
            replica_type = (
                ReplicaType.NON_VOTER
                if action.kind == RepairActionKind.REPLACE_DEAD_NON_VOTER
                else ReplicaType.VOTER)
            candidate = self._pick_candidate(rng, config)
            if candidate is None:
                raise ConfigurationError(
                    f"{rng.name}: no eligible node for {action.kind}")
            yield from rng.add_replica_safely(candidate, replica_type)
            if action.node_id is not None:
                rng.remove_replica_safely(action.node_id)
        elif action.kind == RepairActionKind.DOWN_REPLICATE:
            rng.remove_replica_safely(action.node_id)
        elif action.kind == RepairActionKind.RESTORE_LEASE_PREFERENCE:
            rng.transfer_lease(action.node_id)
        else:  # pragma: no cover - planner only emits known kinds
            raise ConfigurationError(f"unknown repair action {action.kind}")
        return None

    def _pick_candidate(self, rng, config: ZoneConfig):
        surviving = [p.node for p in rng.group.peers.values()
                     if self._status(p.node) != LivenessStatus.DEAD]
        member_ids = list(rng.group.peers)
        return self.allocator.pick_addition(
            config, surviving, exclude_ids=member_ids,
            live_filter=lambda n: (
                self.liveness.aggregate_status(n.node_id)
                == LivenessStatus.LIVE))
