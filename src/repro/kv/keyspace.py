"""Elastic keyspace: span-keyed range descriptors, splits, and merges.

CockroachDB addresses data by *key span*, not by a fixed table-to-range
map: every range owns a ``[start_key, end_key)`` slice of one totally
ordered keyspace, described by a :class:`RangeDescriptor` carrying a
generation number that is bumped on every boundary change.  Ranges
split when they grow too large or too hot and merge back when cold, and
clients route through a descriptor cache that is invalidated by
generation comparison plus ``RangeKeyMismatch`` retries (paper §3.1).

This module is that machinery:

* :func:`encode_key` — a type-tagged total order over the mixed
  Python keys the simulation uses (strings, ints, tuples, None);
* :class:`RangeDescriptor` — span + generation + per-range load;
* :class:`TableSpan` — the ordered descriptor list for one table /
  partition, with change subscriptions for cache invalidation;
* :class:`Keyspace` — the cluster-level registry executing splits and
  merges as synchronous (hence atomic, in the cooperative simulator)
  descriptor-generation bumps.

There is one routing path.  Every :class:`Range` is born owning a span
of its own — ``Range.__init__`` hands itself to :meth:`Keyspace.adopt`,
which gives it the full-span descriptor ``[/Min, /Max)`` at generation 1
inside a single-descriptor :class:`TableSpan` — so a fixed table is the
degenerate instance of an elastic one, not a second kind of thing.

Routing tokens: a :class:`TableSpan` or any :class:`Range` of it.  Both
carry ``.span`` (what keyed requests bisect) and ``.anchor`` (the range
key-less requests — transaction records, epoch orders — pin to: a span's
first range, a Range itself).

Import discipline: this module imports ``Range``; ``range.py`` must
never import this module (it reaches the registry through
``cluster.keyspace`` and its descriptor through ``self.descriptor``).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

from .range import Range

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.topology import Cluster

__all__ = ["encode_key", "MIN_KEY", "RangeLoad", "RangeDescriptor",
           "TableSpan", "Keyspace"]

#: Encoded key below every real key (the first descriptor starts here).
MIN_KEY: Tuple = ()


#: Interned encodings: raw key -> encoded tuple.  Workloads route the
#: same keys over and over (every resolve re-encodes), so encoding once
#: and reusing the tuple removes an allocation from the routing fast
#: path.  Bounded so key churn cannot grow it unboundedly: a full cache
#: is emptied and starts over (encodings are immutable, so a dropped
#: entry costs one re-encode), which keeps a long-lived process — a farm
#: worker many cases in — interning the keys it is routing *now*.
_ENCODE_CACHE: dict = {}
_ENCODE_CACHE_MAX = 65536


def encode_key(key: Any) -> Tuple:
    """Encode ``key`` into a type-tagged tuple with a total order.

    The simulation's keys are heterogeneous (``"acct0"``, ``("u", 7)``,
    ints, ``None``); Python refuses to compare across types, so range
    bounds tag each value with a type rank first — CRDB's order-preserving
    key encoding, reduced to what tuples already give us.

    Encodings are interned: repeated calls with an equal key return the
    same tuple object.
    """
    try:
        cached = _ENCODE_CACHE.get(key)
    except TypeError:  # unhashable key (exotic fallback types only)
        return _encode_key_uncached(key)
    if cached is not None:
        return cached
    encoded = _encode_key_uncached(key)
    if len(_ENCODE_CACHE) >= _ENCODE_CACHE_MAX:
        _ENCODE_CACHE.clear()
    _ENCODE_CACHE[key] = encoded
    return encoded


def _encode_key_uncached(key: Any) -> Tuple:
    if key is None:
        return (0,)
    if isinstance(key, bool):
        return (1, int(key))
    if isinstance(key, (int, float)):
        return (1, key)
    if isinstance(key, bytes):
        return (2, key)
    if isinstance(key, str):
        return (3, key)
    if isinstance(key, tuple):
        return (4,) + tuple(encode_key(part) for part in key)
    # Fallback: order unknown types by repr within their type name.
    return (5, type(key).__name__, repr(key))


class RangeLoad:
    """Per-range request-rate tracking over fixed 1-second windows.

    Everything is driven off simulation time passed in by the caller
    (never wall time), so load-based split decisions are deterministic
    per seed.  ``qps`` reports the *previous completed* window — a
    stable figure that does not flap mid-window.  A bounded per-key
    histogram supports load-weighted split-point selection, and
    per-origin-region counts drive follow-the-workload rebalancing.
    """

    WINDOW_MS = 1000.0
    MAX_TRACKED_KEYS = 128

    __slots__ = ("_window", "_cur", "_prev", "_cur_keys", "_prev_keys",
                 "_cur_regions", "_prev_regions")

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self._window: Optional[int] = None
        self._cur = 0
        self._prev = 0
        self._cur_keys: Dict[Any, int] = {}
        self._prev_keys: Dict[Any, int] = {}
        self._cur_regions: Dict[str, int] = {}
        self._prev_regions: Dict[str, int] = {}

    def _roll(self, now_ms: float) -> None:
        idx = int(now_ms // self.WINDOW_MS)
        if self._window is None:
            self._window = idx
            return
        if idx == self._window:
            return
        if idx == self._window + 1:
            self._prev = self._cur
            self._prev_keys = self._cur_keys
            self._prev_regions = self._cur_regions
        else:  # idle gap: the last full window carried no traffic
            self._prev, self._prev_keys, self._prev_regions = 0, {}, {}
        self._cur, self._cur_keys, self._cur_regions = 0, {}, {}
        self._window = idx

    def record(self, now_ms: float, key: Any = None,
               region: Optional[str] = None) -> None:
        if now_ms // self.WINDOW_MS != self._window:  # HOT: per request
            self._roll(now_ms)
        self._cur += 1
        if key is not None and (key in self._cur_keys
                                or len(self._cur_keys) < self.MAX_TRACKED_KEYS):
            self._cur_keys[key] = self._cur_keys.get(key, 0) + 1
        if region is not None:
            self._cur_regions[region] = self._cur_regions.get(region, 0) + 1

    def qps(self, now_ms: float) -> float:
        """Requests/sec over the previous completed window."""
        self._roll(now_ms)
        return self._prev * (1000.0 / self.WINDOW_MS)

    def _merged_keys(self) -> Dict[Any, int]:
        merged = dict(self._prev_keys)
        for key, count in self._cur_keys.items():
            merged[key] = merged.get(key, 0) + count
        return merged

    def split_key(self, now_ms: float) -> Optional[Any]:
        """The load-weighted median key: the smallest key (in encoded
        order) at which the cumulative request count reaches half the
        total.  A split there sends ~half the observed load each way.
        Returns ``None`` when fewer than two distinct keys were seen
        (a single hot key cannot be split apart)."""
        self._roll(now_ms)
        counts = self._merged_keys()
        if len(counts) < 2:
            return None
        ordered = sorted(counts.items(), key=lambda kv: encode_key(kv[0]))
        total = sum(count for _key, count in ordered)
        running = 0
        for idx, (key, count) in enumerate(ordered):
            running += count
            if running * 2 >= total:
                # Split at the *next* key so the median key itself stays
                # on the left; splitting at the first key is a no-op.
                if idx + 1 < len(ordered):
                    return ordered[idx + 1][0]
                return key
        return None  # pragma: no cover

    def dominant_region(self, now_ms: float) -> Tuple[Optional[str], float]:
        """The origin region sending the most requests and its share."""
        self._roll(now_ms)
        merged = dict(self._prev_regions)
        for region, count in self._cur_regions.items():
            merged[region] = merged.get(region, 0) + count
        total = sum(merged.values())
        if total == 0:
            return None, 0.0
        region = max(sorted(merged), key=lambda r: merged[r])
        return region, merged[region] / total


class RangeDescriptor:
    """One range's owned key span ``[start_key, end_key)`` plus the
    generation number bumped on every boundary change.

    ``end_key is None`` means +infinity; an *emptied* descriptor (after
    a merge subsumes its range) has ``start_key == end_key`` and owns
    nothing — the range lingers as a husk so transaction records
    anchored on it stay resolvable.
    """

    __slots__ = ("rng", "start_key", "end_key", "generation", "load")

    def __init__(self, rng: Range, start_key: Tuple,
                 end_key: Optional[Tuple], generation: int = 1):
        self.rng = rng
        self.start_key = start_key
        self.end_key = end_key
        self.generation = generation
        self.load = RangeLoad()

    @property
    def range_id(self) -> int:
        return self.rng.range_id

    def contains(self, ekey: Tuple) -> bool:
        if ekey < self.start_key:
            return False
        return self.end_key is None or ekey < self.end_key

    def contains_key(self, key: Any) -> bool:
        if self.end_key is None and not self.start_key:
            return True  # [/Min, /Max) owns every key: skip the encoding
        return self.contains(encode_key(key))

    def span_repr(self) -> str:
        start = "/Min" if self.start_key == MIN_KEY else repr(self.start_key)
        end = "/Max" if self.end_key is None else repr(self.end_key)
        if self.end_key is not None and self.start_key == self.end_key:
            return "(empty)"
        return f"[{start}, {end})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RangeDescriptor(r{self.range_id} {self.span_repr()} "
                f"gen={self.generation})")


class TableSpan:
    """The ordered, gapless descriptor list covering one logical table
    (or partition): what keyed requests are routed through.

    Born with one descriptor — ``rng`` owning ``[/Min, /Max)`` at
    generation 1 — and identified by ``span_id``, that first range's id
    (splits keep the parent on the left and merges subsume rightwards,
    so the first range never changes).  ``name`` is a display label;
    two databases' same-named tables have same-named spans.

    Subscribers (DistSender instances) are notified *synchronously* on
    every split / merge with the affected range ids, mirroring how CRDB
    gossips meta-range updates.
    """

    def __init__(self, rng: Range):
        self.span_id = rng.range_id
        self.name = rng.name
        self.span = self  # as a routing token: a span routes through itself
        self.descriptors: List[RangeDescriptor] = [
            RangeDescriptor(rng, MIN_KEY, None)]
        self._starts: List[Tuple] = [MIN_KEY]
        self._subscribers: List[Callable[["TableSpan", List[int]], None]] = []

    def _rebuild(self) -> None:
        self.descriptors.sort(key=lambda d: d.start_key)
        self._starts = [d.start_key for d in self.descriptors]

    def descriptor_for_key(self, key: Any) -> RangeDescriptor:
        # _starts[0] is /Min, below every encoded key: the index is >= 0.
        return self.descriptors[
            bisect_right(self._starts, encode_key(key)) - 1]

    def ranges(self) -> List[Range]:
        return [descriptor.rng for descriptor in self.descriptors]

    def subscribe(self, fn: Callable[["TableSpan", List[int]], None]) -> None:
        if fn not in self._subscribers:
            self._subscribers.append(fn)

    def _notify(self, range_ids: List[int]) -> None:
        for fn in list(self._subscribers):
            fn(self, range_ids)

    @property
    def anchor(self) -> Range:
        """The token contract's key-less half: the span's first range."""
        return self.descriptors[0].rng

    def bulk_ingest(self, items, ts) -> None:
        """Write committed versions directly into every replica of each
        key's owning range.

        Models CRDB's AddSSTable ingestion used by IMPORT and index
        backfills: data lands on all replicas at a single timestamp
        without going through the Raft proposal path.
        """
        owners: Dict[Range, list] = {}
        if len(self.descriptors) == 1:
            # The common case — an unsplit table's IMPORT — skips
            # per-key routing entirely.
            owners[self.anchor] = items
        else:
            for item in items:
                rng = self.descriptor_for_key(item[0]).rng
                owners.setdefault(rng, []).append(item)
        for rng, chunk in owners.items():
            for replica in rng.replicas.values():
                for key, value in chunk:
                    replica.store.put_committed(key, ts, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TableSpan({self.name!r}, {len(self.descriptors)} ranges)"


class Keyspace:
    """Cluster-level registry of every span; executes splits/merges.

    Splits and merges run synchronously — no simulated time passes, so
    in the cooperative simulator they are atomic with respect to every
    in-flight coroutine, the moral equivalent of CRDB applying a split
    trigger below Raft.  Requests already past routing discover the
    boundary change via ``RangeKeyMismatch`` (ownership is rechecked on
    every blocking serve loop iteration) and re-route.
    """

    def __init__(self, cluster: "Cluster"):
        self.cluster = cluster
        #: span_id -> TableSpan: every live span (DDL drops the dead).
        self.spans: Dict[int, TableSpan] = {}
        self.splits = 0
        self.merges = 0

    def _counter(self, name: str, **labels):
        return self.cluster.sim.obs.registry.counter(name, **labels)

    def violations(self) -> List[str]:
        """Structural audit of every span: its descriptors must tile
        ``[/Min, /Max)`` — no key unowned, none doubly owned — each must
        be the one its range holds, and every replica's store must hold
        only keys inside its range's bounds.  One line per breach."""
        out: List[str] = []
        for span in self.spans.values():
            descriptors = span.descriptors
            if descriptors[0].start_key != MIN_KEY:
                out.append(
                    "keyspace: first descriptor does not start at /Min: "
                    f"{descriptors[0].span_repr()}")
            if descriptors[-1].end_key is not None:
                out.append(
                    "keyspace: last descriptor does not extend to /Max: "
                    f"{descriptors[-1].span_repr()}")
            for left, right in zip(descriptors, descriptors[1:]):
                if left.end_key != right.start_key:
                    out.append(
                        "keyspace: gap or overlap between "
                        f"{left.span_repr()} and {right.span_repr()}")
            for descriptor in descriptors:
                rng = descriptor.rng
                if rng.descriptor is not descriptor or rng.span is not span:
                    out.append(
                        f"keyspace: {rng.name} does not hold its "
                        f"descriptor {descriptor.span_repr()} of span "
                        f"{span.name!r}")
                for node_id, replica in sorted(rng.replicas.items()):
                    strays = [key for key in replica.store.keys()
                              if not descriptor.contains_key(key)]
                    if strays:
                        out.append(
                            f"keyspace: replica n{node_id} of {rng.name} "
                            f"holds keys outside {descriptor.span_repr()}: "
                            f"{sorted(strays)}")
        return out

    # -- adoption ------------------------------------------------------------

    def adopt(self, rng: Range) -> None:
        """Give a range under construction its own span: one descriptor
        covering the whole keyspace.  Called by ``Range.__init__`` — a
        range without a descriptor never exists."""
        span = TableSpan(rng)
        rng.span = span
        rng.descriptor = span.descriptors[0]
        self.spans[span.span_id] = span

    # -- split ---------------------------------------------------------------

    def split(self, descriptor: RangeDescriptor, split_key: Any,
              trigger: str = "manual") -> RangeDescriptor:
        """Split ``descriptor``'s range at ``split_key``.

        The right half moves to a freshly created range whose replicas
        sit on the same nodes (CRDB splits never move data between
        stores); MVCC histories, applied intents, and lock-table state
        for keys at or above the split point migrate to the child, both
        descriptors' generations bump, and span subscribers are told to
        invalidate.  Parent and child share the span, through which
        in-flight Raft commands that apply after the boundary moved are
        forwarded to the owning range (``Range._apply``).
        """
        parent = descriptor.rng
        span = parent.span
        ekey = encode_key(split_key)
        if not descriptor.contains(ekey) or ekey == descriptor.start_key:
            raise ValueError(
                f"split key {split_key!r} outside ({descriptor.span_repr()})"
                f" or at its start")
        if parent.leaseholder_node_id is None:
            raise ValueError(f"{parent.name}: cannot split without a lease")

        child = Range(self.cluster, policy=parent.policy,
                      proposal_timeout_ms=parent.group.proposal_timeout_ms)
        child.name = f"{span.name}#{child.range_id}"
        # The child was born owning a span of its own; it joins its
        # parent's instead.
        del self.spans[child.span.span_id]
        # Same stores, same replica types, same order as the parent.
        for node_id, peer in parent.group.peers.items():
            child.add_replica(peer.node, peer.replica_type)
        child.group.set_leader(parent.leaseholder_node_id)
        # _install_lease gives the child a conservatively fresh timestamp
        # cache (now + max_offset), covering any read the parent's lease
        # could have served over the moved keys.
        child._install_lease(parent.leaseholder_node_id)
        # Closed-timestamp state carries over: the parent promised those
        # timestamps for the whole old span, child included.
        child.closed_emitted = parent.closed_emitted
        for node_id, peer in parent.group.peers.items():
            child_peer = child.group.peers.get(node_id)
            if child_peer is not None:
                child_peer.closed_ts = peer.closed_ts
        # Move MVCC state (committed versions + applied intents) on every
        # replica, and the leaseholder's lock-table entries, to the child.
        def moves(key: Any) -> bool:
            return encode_key(key) >= ekey

        for node_id, replica in parent.replicas.items():
            child_replica = child.replicas.get(node_id)
            if child_replica is not None:
                child_replica.store.absorb(replica.store.extract(moves))
                # Commit records travel with the keys they guard.
                child_replica.absorb_records(replica)
        parent.lock_table.move_entries(moves, child.lock_table)
        # Unproven pipelined writes follow their keys: the proof and the
        # stall look for them where the key is served.  A merge moves
        # none: each holds its key's lock, and a right side holding one
        # cannot merge.
        for entry in [e for e in parent.pipelined if moves(e[1])]:
            child.pipelined[entry] = parent.pipelined.pop(entry)

        child_descriptor = RangeDescriptor(
            child, ekey, descriptor.end_key,
            generation=descriptor.generation + 1)
        child.descriptor = child_descriptor
        child.span = span
        descriptor.end_key = ekey
        descriptor.generation += 1
        descriptor.load.reset()
        parent.routing_generation += 1

        # Inherit the parent's liveness plumbing.
        if parent.side_transport_interval_ms is not None:
            child.start_side_transport(parent.side_transport_interval_ms)
        retransmit = parent.group._retransmit_interval_ms
        if retransmit is not None:
            child.group.start_retransmission(retransmit)

        span.descriptors.append(child_descriptor)
        span._rebuild()
        self.splits += 1
        self._counter("keyspace.splits", trigger=trigger).inc()
        span._notify([parent.range_id, child.range_id])
        return child_descriptor

    # -- merge ---------------------------------------------------------------

    def can_merge(self, left: RangeDescriptor, right: RangeDescriptor) -> bool:
        """Is merging ``right`` into ``left`` safe right now?

        Requires adjacency, identical replica placement (a CRDB merge
        first rebalances the sides into colocation; here the split path
        preserves colocation so this is a sanity check), and a quiescent
        right-hand lock table — no in-flight write may straddle the
        merge, or a command forwarded after the boundary moves could
        commit below the left side's closed timestamp.
        """
        if left.rng.span is not right.rng.span:
            return False
        if left.end_key is None or left.end_key != right.start_key:
            return False
        left_peers = {nid: p.replica_type
                      for nid, p in left.rng.group.peers.items()}
        right_peers = {nid: p.replica_type
                       for nid, p in right.rng.group.peers.items()}
        if left_peers != right_peers:
            return False
        if left.rng.leaseholder_node_id is None:
            return False
        if not right.rng.lock_table.is_quiescent():
            return False
        return True

    def merge(self, left: RangeDescriptor, right: RangeDescriptor) -> None:
        """Merge ``right``'s range into ``left``'s (the subsume side).

        The right range's data folds into the left on every replica, the
        left descriptor absorbs the right's span, and the right range
        becomes a non-serving husk: its emptied descriptor owns no keys
        (so every routed request bounces with ``RangeKeyMismatch``), but
        it keeps serving transaction-record operations so transactions
        anchored there stay recoverable.
        """
        if not self.can_merge(left, right):
            raise ValueError(
                f"cannot merge r{right.range_id} into r{left.range_id}")
        left_rng, right_rng = left.rng, right.rng
        span = left_rng.span
        if right_rng.leaseholder_node_id != left_rng.leaseholder_node_id:
            right_rng.transfer_lease(left_rng.leaseholder_node_id)
        for node_id, replica in right_rng.replicas.items():
            left_replica = left_rng.replicas.get(node_id)
            if left_replica is not None:
                left_replica.store.absorb(
                    replica.store.extract(lambda _key: True))
                left_replica.absorb_records(replica)
        left.end_key = right.end_key
        left.generation = max(left.generation, right.generation) + 1
        left.load.reset()
        # The left lease now covers keys the right lease may have served
        # reads for; raise the timestamp-cache floor past anything the
        # right side could have promised.
        clock = left_rng.leaseholder_node.clock
        left_rng.ts_cache.raise_low_water(
            clock.now().add(clock.max_offset).with_synthetic(False))
        left_rng.routing_generation += 1
        # Empty the right descriptor: start == end owns nothing.
        right.start_key = right.end_key = left.end_key or MIN_KEY
        right.generation += 1
        right.load.reset()
        right_rng.routing_generation += 1
        right_rng.destroy()  # stops its side transport; Raft group stays
        span.descriptors.remove(right)
        span._rebuild()
        self.merges += 1
        self._counter("keyspace.merges").inc()
        span._notify([left_rng.range_id, right_rng.range_id])
