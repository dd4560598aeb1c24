"""Provisioning: build live Ranges from zone configurations.

This is the glue between placement decisions and the KV layer: it
creates the Range, attaches replicas per the placement, assigns the
lease, picks the closed-timestamp policy (lag for REGIONAL, lead for
GLOBAL, sized from the range's actual topology), and starts the
closed-timestamp side transport.
"""

from __future__ import annotations

from typing import Optional

from ..kv.closedts import LagPolicy, LeadPolicy
from ..kv.range import Range
from ..raft.group import ReplicaType
from .allocator import Allocator, Placement
from .zoneconfig import ZoneConfig

__all__ = ["provision_range", "reconfigure_range"]


def provision_range(cluster, config: ZoneConfig, global_reads: bool = False,
                    name: str = "",
                    side_transport_interval_ms: Optional[float] = None,
                    closed_ts_lag_ms: Optional[float] = None,
                    proposal_timeout_ms: Optional[float] = None,
                    retransmit_interval_ms: Optional[float] = None) -> Range:
    """Create a Range placed per ``config``.

    ``global_reads`` selects the future-time closed timestamp policy
    (GLOBAL tables); otherwise the standard lag policy applies.

    ``proposal_timeout_ms`` bounds Raft proposals (needed so writes fail
    cleanly instead of hanging when quorum is lost) and
    ``retransmit_interval_ms`` enables leader append retries — both are
    off by default and switched on by chaos provisioning.
    """
    placement = Allocator(cluster).place(config)
    rng = Range(cluster, name=name, proposal_timeout_ms=proposal_timeout_ms)
    for node in placement.voters:
        rng.add_replica(node, ReplicaType.VOTER)
    for node in placement.non_voters:
        rng.add_replica(node, ReplicaType.NON_VOTER)
    rng.set_leaseholder(placement.leaseholder.node_id)
    _assign_policy(cluster, rng, global_reads, closed_ts_lag_ms,
                   side_transport_interval_ms)
    rng.start_side_transport(side_transport_interval_ms)
    if retransmit_interval_ms is not None:
        rng.group.start_retransmission(retransmit_interval_ms)
    return rng


def _assign_policy(cluster, rng: Range, global_reads: bool,
                   closed_ts_lag_ms: Optional[float],
                   side_transport_interval_ms: Optional[float] = None) -> None:
    if global_reads:
        interval = (side_transport_interval_ms
                    if side_transport_interval_ms is not None
                    else Range.SIDE_TRANSPORT_INTERVAL_MS)
        # The worst-case *actual* clock skew between any two nodes, per
        # the cluster's skew model (never exceeds max_clock_offset).
        skew_allowance = cluster.clock.max_offset * cluster.clock.skew_fraction
        rng.policy = LeadPolicy.for_range(
            raft_latency_ms=rng.raft_latency_ms(),
            replicate_latency_ms=rng.replicate_latency_ms(),
            max_clock_offset=cluster.max_clock_offset,
            side_transport_interval_ms=interval,
            skew_allowance_ms=skew_allowance)
    elif closed_ts_lag_ms is not None:
        rng.policy = LagPolicy(lag_ms=closed_ts_lag_ms)
    else:
        rng.policy = LagPolicy()


def reconfigure_range(cluster, rng: Range, config: ZoneConfig,
                      global_reads: bool = False,
                      closed_ts_lag_ms: Optional[float] = None) -> Range:
    """Re-place an existing Range under a new zone config.

    Used by ``ALTER TABLE ... SET LOCALITY`` and survivability changes:
    replicas are added/removed/retyped in place (new replicas catch up
    from the leader) and the lease moves to the new preferred region.
    """
    placement = Allocator(cluster).place(config)
    desired = {node.node_id: ReplicaType.VOTER for node in placement.voters}
    desired.update({node.node_id: ReplicaType.NON_VOTER
                    for node in placement.non_voters})

    # Lease must land on a new voter before dropping the old leaseholder.
    new_lease_node = placement.leaseholder
    guard = rng.group.config_guard

    current_ids = set(rng.replicas)
    # 1. Add new members, one config change each (instant snapshot from
    #    the leader — the provisioning shortcut; the repair path pays
    #    real transfer latency instead).  Learners first would be
    #    strictly more faithful, but each add here is a complete,
    #    caught-up single change, so quorum is never at risk.
    for node in placement.all_nodes():
        if node.node_id not in current_ids:
            rng.add_replica(node, desired[node.node_id])
    # 2. Promote surviving non-voters one at a time.  A synchronous
    #    reconfigure cannot wait for the live stream, so each promotion
    #    is preceded by an instant snapshot-catch-up; the promotion then
    #    passes the learner-completeness and quorum checks for real.
    for node_id, replica_type in desired.items():
        peer = rng.group.peers.get(node_id)
        if (peer is not None and replica_type == ReplicaType.VOTER
                and peer.replica_type != ReplicaType.VOTER):
            guard.acquire(f"promote@n{node_id}", cluster.sim.now)
            try:
                rng.group.install_snapshot(node_id)
                rng.group.promote_learner(node_id)
            finally:
                guard.release(cluster.sim.now)
    # 3. Move the lease off any voter about to be demoted or removed.
    if rng.leaseholder_node_id != new_lease_node.node_id:
        rng.transfer_lease(new_lease_node.node_id)
    # 4. Demote surviving voters one at a time (quorum-checked).
    for node_id, replica_type in desired.items():
        peer = rng.group.peers.get(node_id)
        if (peer is not None and replica_type == ReplicaType.NON_VOTER
                and peer.replica_type == ReplicaType.VOTER):
            guard.acquire(f"demote@n{node_id}", cluster.sim.now)
            try:
                rng.group.demote_voter(node_id)
            finally:
                guard.release(cluster.sim.now)
    # 5. Drop stragglers via the quorum-safe removal path.
    for node_id in list(current_ids - set(desired)):
        rng.remove_replica_safely(node_id)
    _assign_policy(cluster, rng, global_reads, closed_ts_lag_ms)
    return rng
