"""Fault-schedule builders: the nemeses every fault scenario runs.

Each builder takes a harness — any object exposing ``.cluster``,
``.regions``, ``.home`` and ``.range`` (the range whose leaseholder /
followers the schedule targets) — and returns a list of timed
:class:`~repro.chaos.nemesis.FaultEvent` records.  The rows of
:data:`repro.verify.SCENARIOS` name them as their ``faults``, and the
protocol head-to-head (:mod:`repro.harness.protocols`) holds one of them
mid-run through :func:`build_faults`.
"""

from __future__ import annotations

from typing import List, Optional

from .nemesis import FaultEvent

__all__ = [
    "build_faults", "blackout_faults", "rolling_zone_faults",
    "flaky_wan_faults", "gray_follower_faults", "asym_partition_faults",
    "partition_leaseholder_faults", "crash_restart_faults",
    "kill_node_faults", "split_under_fire_faults", "region_loss_faults",
    "clock_drift_faults", "clock_jump_faults", "clock_freeze_faults",
]


def _crash(cluster, name: str, victims: List[int], at_ms: float,
           heal_at_ms: Optional[float] = None) -> FaultEvent:
    """Crash ``victims`` at ``at_ms``; restart them at ``heal_at_ms``
    (None: the loss is permanent — only a final heal-all may revive)."""
    def restart():
        for node_id in victims:
            cluster.restart_node(node_id)
    return FaultEvent(
        name=name, at_ms=at_ms,
        inject=lambda: [cluster.crash_node(n) for n in victims],
        heal_at_ms=heal_at_ms,
        heal=restart if heal_at_ms is not None else None)


def _home_nodes(harness) -> List[int]:
    return [n.node_id
            for n in harness.cluster.nodes_in_region(harness.home)]


def blackout_faults(harness) -> List[FaultEvent]:
    return [_crash(harness.cluster, f"blackout:{harness.home}",
                   _home_nodes(harness), 250.0, 1600.0)]


def rolling_zone_faults(harness) -> List[FaultEvent]:
    cluster = harness.cluster
    events = []
    for index, region in enumerate(harness.regions):
        start = 200.0 + 450.0 * index
        events.append(_crash(
            cluster, f"zone-crash:{region}",
            [cluster.nodes_in_region(region)[-1].node_id],
            start, start + 400.0))
    return events


def flaky_wan_faults(harness) -> List[FaultEvent]:
    faults = harness.cluster.network.faults
    home = harness.home
    other = next(r for r in harness.regions if r != home)
    return [FaultEvent(
        name=f"flaky-wan:{home}<->{other}",
        at_ms=200.0,
        inject=lambda: (faults.set_loss(home, other, 0.25),
                        faults.set_latency_factor(home, other, 3.0)),
        heal_at_ms=1400.0,
        heal=lambda: (faults.set_loss(home, other, 0.0),
                      faults.set_latency_factor(home, other, 1.0)))]


def _non_lease_follower(harness) -> int:
    lease_node = harness.range.leaseholder_node_id
    return next(p.node.node_id for p in harness.range.group.voters()
                if p.node.node_id != lease_node)


def gray_follower_faults(harness) -> List[FaultEvent]:
    faults = harness.cluster.network.faults
    follower = _non_lease_follower(harness)
    return [FaultEvent(
        name=f"gray-node:{follower}",
        at_ms=200.0,
        inject=lambda: faults.slow_node(follower, 20.0),
        heal_at_ms=1400.0,
        heal=lambda: faults.restore_node_speed(follower))]


def asym_partition_faults(harness) -> List[FaultEvent]:
    faults = harness.cluster.network.faults
    home = harness.home
    other = next(r for r in harness.regions if r != home)
    return [FaultEvent(
        name=f"asym-cut:{other}->{home}",
        at_ms=250.0,
        inject=lambda: faults.cut_link(other, home, bidirectional=False),
        heal=lambda: faults.heal_link(other, home, bidirectional=False),
        heal_at_ms=1400.0)]


def partition_leaseholder_faults(harness, at_ms: float = 250.0,
                                 heal_at_ms: float = 1400.0
                                 ) -> List[FaultEvent]:
    """Symmetrically partition exactly the node holding the lease (it
    stays up — it just can't talk to anyone)."""
    faults = harness.cluster.network.faults
    victim = harness.range.leaseholder_node_id
    peers = [n.node_id for n in harness.cluster.nodes
             if n.node_id != victim]
    return [FaultEvent(
        name=f"partition-lease:n{victim}",
        at_ms=at_ms,
        inject=lambda: [faults.cut_link(victim, p, bidirectional=True)
                        for p in peers],
        heal_at_ms=heal_at_ms,
        heal=lambda: [faults.heal_link(victim, p, bidirectional=True)
                      for p in peers])]


def crash_restart_faults(harness) -> List[FaultEvent]:
    follower = _non_lease_follower(harness)
    return [_crash(harness.cluster, f"crash:{follower}", [follower],
                   250.0, 1100.0)]


def _quiet_follower(harness) -> int:
    """A non-leaseholder voter, preferring one that isn't a client
    gateway (clients connect to the first two nodes of each region), so
    availability dips reflect the range, not a dead client connection."""
    cluster = harness.cluster
    lease_node = harness.range.leaseholder_node_id
    candidates = [p.node for p in harness.range.group.voters()
                  if p.node.node_id != lease_node]

    def is_gateway(node) -> bool:
        peers = cluster.nodes_in_region(node.locality.region)
        return node in peers[:2]

    return sorted(candidates,
                  key=lambda n: (is_gateway(n), n.node_id))[0].node_id


def kill_node_faults(harness) -> List[FaultEvent]:
    victim = _quiet_follower(harness)
    return [_crash(harness.cluster, f"kill:{victim}", [victim], 300.0)]


def split_under_fire_faults(harness) -> List[FaultEvent]:
    """Crash the (initial) leaseholder while hot-key load is driving
    the rebalance queue through splits, then restart it."""
    victim = harness.range.leaseholder_node_id
    return [_crash(harness.cluster, f"crash-lease:{victim}", [victim],
                   250.0, 1100.0)]


def region_loss_faults(harness) -> List[FaultEvent]:
    return [_crash(harness.cluster, f"region-loss:{harness.home}",
                   _home_nodes(harness), 300.0)]


def clock_drift_faults(harness,
                        heal_at_ms: float = 1400.0) -> List[FaultEvent]:
    """Two non-leaseholder voters drift at +-3%/s — enough to smear the
    MVCC timeline, never enough to leave the max-offset contract."""
    clock = harness.cluster.clock
    lease_node = harness.range.leaseholder_node_id
    victims = [p.node.node_id for p in harness.range.group.voters()
               if p.node.node_id != lease_node][:2]
    events = []
    for index, node_id in enumerate(victims):
        rate = 0.03 if index % 2 == 0 else -0.03
        events.append(FaultEvent(
            name=f"clock-drift:n{node_id}",
            at_ms=200.0,
            inject=lambda n=node_id, r=rate: clock.set_drift(n, r),
            heal_at_ms=heal_at_ms,
            heal=lambda n=node_id: clock.heal(n)))
    return events


def clock_jump_faults(harness) -> List[FaultEvent]:
    """One voter's clock steps +800 ms; no heal ever comes."""
    clock = harness.cluster.clock
    victim = _quiet_follower(harness)
    return [FaultEvent(
        name=f"clock-jump:n{victim}",
        at_ms=300.0,
        inject=lambda: clock.jump(victim, 800.0))]


def clock_freeze_faults(harness) -> List[FaultEvent]:
    """The leaseholder's clock freezes solid mid-run; the heal
    step-syncs it."""
    clock = harness.cluster.clock
    victim = harness.range.leaseholder_node_id
    return [FaultEvent(
        name=f"clock-freeze:n{victim}",
        at_ms=250.0,
        inject=lambda: clock.freeze(victim),
        heal_at_ms=1400.0,
        heal=lambda: clock.heal(victim))]


def build_faults(name: str, harness, **timing) -> List[FaultEvent]:
    """The fault schedule of the :data:`repro.verify.SCENARIOS` row
    ``name``, targeted at ``harness``; ``timing`` overrides the
    builder's inject / heal times."""
    # Imported here: the verify table is built on this module.
    from ..verify import SCENARIOS
    return SCENARIOS[name].faults(harness, **timing)
