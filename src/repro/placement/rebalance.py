"""Load-based rebalancing: the replicate queue, generalized (paper §4).

CockroachDB's allocator does more than repair broken placements — it
keeps the keyspace *elastic*: ranges split when they get too big or too
hot, cold neighbours merge back, and leases migrate toward the regions
actually generating the load ("follow the workload").  :class:`RebalanceQueue` extends
:class:`~repro.placement.repair.ReplicateQueue` with exactly those
decisions, driven by the per-range load tracking on
:class:`~repro.kv.keyspace.RangeDescriptor`:

* **size splits** — a range holding more than ``split_max_keys`` keys
  splits at its median key;
* **load splits** — a range sustaining ``split_qps`` or more splits at
  the load-weighted median of its recent access histogram, so the hot
  tail lands in its own range;
* **cold merges** — adjacent ranges of the same span that have been
  cold (below ``merge_qps``) for ``merge_patience`` consecutive scans
  and fit in one range merge back, subject to the safety preconditions
  in :meth:`~repro.kv.keyspace.Keyspace.can_merge`;
* **lease moves** — when one region drives a dominant share of a
  range's traffic and the zone config expresses no explicit lease
  preference, the lease transfers to a live, log-complete voter there.

Repair always wins: the inherited scan runs first, ranges with an
in-flight repair chain (or any in-flight membership change) are left
alone, and an explicit ``lease_preferences`` in the zone config
disables follow-the-workload for that span so the two policies cannot
ping-pong a lease between regions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..cluster.liveness import LivenessStatus
from ..errors import RangeUnavailableError
from ..kv.keyspace import encode_key
from .allocator import Allocator
from .repair import ReplicateQueue
from .zoneconfig import ZoneConfig

__all__ = ["RebalanceQueue"]


class RebalanceQueue(ReplicateQueue):
    """Repair plus splits, merges, and follow-the-workload rebalancing."""

    #: Size-split threshold: keys in the leaseholder's store.
    SPLIT_MAX_KEYS = 64
    #: Load-split threshold: sustained QPS over the last load window.
    SPLIT_QPS = 20.0
    #: Merge candidate ceiling: both sides below this QPS...
    MERGE_QPS = 2.0
    #: ...for this many consecutive scans.
    MERGE_PATIENCE = 3
    #: Follow-the-workload: one region must drive this traffic share.
    LEASE_SHARE = 0.6
    #: Minimum sim-time between lease moves on one range (anti-thrash).
    LEASE_COOLDOWN_MS = 2000.0

    def __init__(self, cluster, liveness,
                 interval_ms: float = ReplicateQueue.INTERVAL_MS,
                 split_max_keys: int = SPLIT_MAX_KEYS,
                 split_qps: float = SPLIT_QPS,
                 merge_qps: float = MERGE_QPS,
                 merge_patience: int = MERGE_PATIENCE,
                 lease_cooldown_ms: float = LEASE_COOLDOWN_MS):
        super().__init__(cluster, liveness, interval_ms)
        # Load-aware allocator: prefer nodes with low leaseholder QPS,
        # breaking ties by replica count like the default signal.
        self.allocator = Allocator(cluster, load_fn=self._node_load)
        self.split_max_keys = split_max_keys
        self.split_qps = split_qps
        self.merge_qps = merge_qps
        self.merge_patience = merge_patience
        self.lease_cooldown_ms = lease_cooldown_ms
        #: span id -> (TableSpan, ZoneConfig)
        self._spans: Dict[int, Tuple[object, ZoneConfig]] = {}
        #: span id -> range_ids this queue manages on the span's behalf.
        self._span_ranges: Dict[int, Set[int]] = {}
        #: range_id -> consecutive scans at/below merge_qps.
        self._cold_scans: Dict[int, int] = {}
        #: range_id -> sim time of the last follow-the-workload move.
        self._last_lease_move: Dict[int, float] = {}

    # -- management --------------------------------------------------------

    def manage_span(self, span, config: ZoneConfig) -> None:
        """Manage every live range of a span, present and future."""
        self._spans[span.span_id] = (span, config)
        self._span_ranges.setdefault(span.span_id, set())
        self._sync_span(span, config)

    def _sync_span(self, span, config: ZoneConfig) -> None:
        """Adopt new descriptors (splits) and drop merged-away ranges."""
        live = {d.range_id for d in span.descriptors}
        tracked = self._span_ranges[span.span_id]
        for descriptor in span.descriptors:
            if descriptor.range_id not in tracked:
                self.manage(descriptor.rng, config)
                tracked.add(descriptor.range_id)
        for range_id in sorted(tracked - live):
            tracked.discard(range_id)
            self._managed.pop(range_id, None)
            self._cold_scans.pop(range_id, None)
            self._last_lease_move.pop(range_id, None)

    # -- load signals ------------------------------------------------------

    def _node_load(self, node) -> tuple:
        """(leaseholder QPS, replica count): the follow-the-workload
        load signal fed to the allocator."""
        now = self.sim.now
        qps = 0.0
        for span, _config in self._spans.values():
            for descriptor in span.descriptors:
                if descriptor.rng.leaseholder_node_id == node.node_id:
                    qps += descriptor.load.qps(now)
        return (qps, len(node.replicas))

    def _range_keys(self, rng) -> List:
        try:
            store = rng.leaseholder_replica.store
        except RangeUnavailableError:
            return []
        return sorted(store.keys(), key=encode_key)

    def _counter(self, name: str, **labels):
        return self.metrics.registry.counter(name, **labels)

    def _quiet(self, rng) -> bool:
        """Safe to restructure: no repair chain or membership change in
        flight, and the range has a leaseholder to anchor the change."""
        return (rng.range_id not in self._busy
                and rng.group.config_guard.in_flight is None
                and rng.leaseholder_node_id is not None)

    # -- scanning ----------------------------------------------------------

    def scan(self) -> int:
        enqueued = super().scan()
        for span_id in sorted(self._spans):
            span, config = self._spans[span_id]
            self._sync_span(span, config)
            enqueued += self._rebalance_span(span, config)
        return enqueued

    def _rebalance_span(self, span, config: ZoneConfig) -> int:
        actions = 0
        now = self.sim.now
        for descriptor in list(span.descriptors):
            qps = descriptor.load.qps(now)
            self.metrics.registry.gauge(
                "range.qps", range=descriptor.rng.name).set(qps)
            if qps <= self.merge_qps:
                self._cold_scans[descriptor.range_id] = (
                    self._cold_scans.get(descriptor.range_id, 0) + 1)
            else:
                self._cold_scans[descriptor.range_id] = 0
            actions += self._maybe_split(span, config, descriptor, qps)
        actions += self._maybe_merge(span)
        if not config.lease_preferences:
            for descriptor in list(span.descriptors):
                actions += self._follow_workload(config, descriptor)
        return actions

    # -- splits ------------------------------------------------------------

    def _maybe_split(self, span, config: ZoneConfig, descriptor,
                     qps: float) -> int:
        rng = descriptor.rng
        if not self._quiet(rng):
            return 0
        split_key = None
        trigger = None
        keys = self._range_keys(rng)
        if len(keys) > self.split_max_keys:
            split_key, trigger = keys[len(keys) // 2], "size"
        elif qps >= self.split_qps:
            key = descriptor.load.split_key(self.sim.now)
            if key is not None:
                split_key, trigger = key, "load"
        if split_key is None or not descriptor.contains_key(split_key):
            return 0
        # Descriptor bounds are stored pre-encoded; splitting at the
        # start key would create an empty left half.
        if encode_key(split_key) <= descriptor.start_key:
            return 0
        try:
            child = self.cluster.keyspace.split(
                descriptor, split_key, trigger=trigger)
        except (ValueError, RangeUnavailableError):
            self._counter("rebalance.split_failures", trigger=trigger).inc()
            return 0
        self.manage(child.rng, config)
        self._span_ranges[span.span_id].add(child.range_id)
        self._counter("rebalance.splits", trigger=trigger).inc()
        return 1

    # -- merges ------------------------------------------------------------

    def _maybe_merge(self, span) -> int:
        """At most one merge per span per scan (descriptor list mutates)."""
        keyspace = self.cluster.keyspace
        descriptors = span.descriptors
        for left, right in zip(descriptors, descriptors[1:]):
            if (self._cold_scans.get(left.range_id, 0) < self.merge_patience
                    or self._cold_scans.get(right.range_id, 0)
                    < self.merge_patience):
                continue
            if not (self._quiet(left.rng) and self._quiet(right.rng)):
                continue
            combined = (len(self._range_keys(left.rng))
                        + len(self._range_keys(right.rng)))
            if combined > self.split_max_keys:
                continue
            if not keyspace.can_merge(left, right):
                continue
            right_id = right.range_id
            try:
                keyspace.merge(left, right)
            except (ValueError, RangeUnavailableError):
                self._counter("rebalance.merge_failures").inc()
                continue
            self._managed.pop(right_id, None)
            self._cold_scans.pop(right_id, None)
            self._counter("rebalance.merges").inc()
            return 1
        return 0

    # -- follow the workload -----------------------------------------------

    def _follow_workload(self, config: ZoneConfig, descriptor) -> int:
        rng = descriptor.rng
        if not self._quiet(rng):
            return 0
        region, share = descriptor.load.dominant_region(self.sim.now)
        if region is None or share < self.LEASE_SHARE:
            return 0
        lh_peer = rng.group.peers.get(rng.leaseholder_node_id)
        if lh_peer is None or lh_peer.node.locality.region == region:
            return 0
        last = self._last_lease_move.get(rng.range_id)
        if last is not None and self.sim.now - last < self.lease_cooldown_ms:
            return 0
        candidates = [
            p for p in rng.group.voters()
            if p.node.locality.region == region
            and self._status(p.node) == LivenessStatus.LIVE
            and rng.group.log_complete(p)]
        if candidates:
            best = max(candidates, key=lambda p: (p.last_term, p.last_index,
                                                  -p.node.node_id))
            rng.transfer_lease(best.node.node_id)
            self._last_lease_move[rng.range_id] = self.sim.now
            self._counter("rebalance.lease_moves", region=region).inc()
            return 1
        return 0
