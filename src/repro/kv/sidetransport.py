"""The closed-timestamp side transport: one stream per node pair.

An idle range's closed timestamp still has to advance on its followers
(paper §5.1.1), so every leaseholder periodically ships it.  As in CRDB,
the unit of shipping is the *node pair*, not the range: one ticker per
(cluster, interval) sends one message per (leader node, follower node)
stream, and the message carries one closed timestamp per policy, not one
per range.

Sender.  Each tick reads each leaseholder node's HLC once and computes
one target per (leaseholder node, policy) — the *slot* — then walks the
ranges: each raises its own ``closed_emitted`` and its leader's closed
timestamp to its own target, the larger of the slot's target and its
``closed_emitted``.  A range's entry in a stream's *table* is rewritten
only when it joins the stream (new, a split child, its lease, leader,
membership or policy moved, its leaseholder came back), when its commit
index or last committed entry changed, or when its own target is ahead
of its slot's and differs from the one its entry carries (a
``closed_emitted`` that ran ahead: a lease moved to a slower clock, a
lag target still before time zero); it leaves the table when it leaves
the stream.  The table is copied on write, so every message holds the
table as of its tick.

Receiver.  The follower node's :class:`~repro.raft.group.ClosedTsReceiver`
keeps no state: every entry of every message goes through
``RaftGroup._deliver_closed_ts`` (the per-range delivery) with the
larger of its own timestamp and its slot's target.  An idle cluster's
tick so costs one HLC reading per node, a few comparisons per range and
one message per stream on the sender, and one per-range delivery per
follower replica on the receivers.  The streams the benchmark runs
carry one to two ranges a message, too few for remembering the last
table (to skip unchanged entries) to be worth its code.

The messages — which pairs, in which order (the order in which a walk of
the ranges in registration order first meets each pair), at which
instants — are those of a per-range tick, and each follower's closed
timestamp and commit index move as the per-range delivery would move
them.  All ranges of an interval tick on one shared phase (the
ticker's, set by the first range to register); a range that registers
between ticks is shipped from the next one, so a follower's closed
timestamp is at most one interval plus one flight stale — what
``LeadPolicy.for_range`` already budgets for.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..raft.group import ClosedTsReceiver

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.topology import Cluster
    from .range import Range

__all__ = ["SideTransport"]


class _Frame:
    """One tick's slot targets, shared by all its messages: ``targets``,
    the previous tick's (``before``) and whether each rose since
    (``rose``), indexed by slot; None where a slot did not ship."""

    __slots__ = ("targets", "before", "rose")

    def __init__(self, previous: Optional["_Frame"], slots: int):
        self.targets: list = [None] * slots
        before = previous.targets if previous is not None else []
        self.before = before + [None] * (slots - len(before))
        self.rose: list = [False] * slots


class _Stream:
    """The sender's end of one (leader node, follower node) stream."""

    __slots__ = ("src", "dst", "deliver", "table", "shared")

    def __init__(self, network, src, dst):
        self.src = src
        self.dst = dst
        #: The far end's handler (``ClosedTsReceiver.deliver``).
        self.deliver = ClosedTsReceiver(network, dst).deliver
        #: range id -> (group, peer, slot, ts, commit index, last
        #: committed entry), as of the range's last explicit entry.
        self.table: dict = {}
        #: The table has been sent: copy it before the next change.
        self.shared = False

    def unshare(self) -> None:
        """Copy the sent table before changing it."""
        self.table = dict(self.table)
        self.shared = False


class _Carried:
    """A registered range as the last layout saw it."""

    __slots__ = ("rng", "group", "generation", "leader_id", "policy",
                 "leader", "slot", "links", "commit", "committed", "ts")

    def __init__(self, rng: "Range"):
        self.rng = rng
        self.group = rng.group
        self.generation = rng.routing_generation
        self.leader_id = rng.group.leader_node_id
        self.policy = rng.policy
        self.leader = None
        self.slot = -1
        #: ((stream, peer), ...) per follower; None for a range shipped
        #: by its own coalescing group.
        self.links: Optional[List[Tuple[_Stream, object]]] = None
        #: The commit index, last committed entry and timestamp its
        #: table entries carry; -1 until the range has been named in them.
        self.commit = -1
        self.committed = None
        self.ts = None


def _same_links(a, b) -> bool:
    return len(a) == len(b) and all(
        x[0] is y[0] and x[1] is y[1] for x, y in zip(a, b))


class SideTransport:
    """The ticker of every range of ``cluster`` shipped every
    ``interval_ms``.  Lives in ``cluster.side_transports`` while it has
    ranges; :meth:`Range.start_side_transport` is the way in."""

    def __init__(self, cluster: "Cluster", interval_ms: float):
        self.cluster = cluster
        self.interval_ms = interval_ms
        #: Registration order, which fixes the order of sends per tick.
        self.ranges: List["Range"] = []
        #: (leaseholder node id, policy) -> slot; never renumbered.
        self._slots: Dict[tuple, int] = {}
        #: (leader node id, follower node id) -> stream
        self._streams: Dict[Tuple[int, int], _Stream] = {}
        self._frame: Optional[_Frame] = None
        # The layout: extended by registrations, rebuilt when a range
        # moves.
        #: Ranges registered since the layout was last extended.
        self._joined: List["Range"] = []
        #: Every live range laid out, for change detection.
        self._watched: List[_Carried] = []
        #: Leaseholder node id -> dead, as of the layout, and the
        #: fault-plane generation they were last read at.
        self._liveness: Dict[int, bool] = {}
        self._faults_seen = -1
        #: The ranges shipped, in registration order.
        self._carried: List[_Carried] = []
        #: Leaseholder node id -> (its HLC, {slot: policy}).
        self._clock_slots: Dict[int, tuple] = {}
        #: The same as ``(HLC, ((slot, policy), ...))`` per node.
        self._clocks: List[tuple] = []
        #: The streams that send, in order of first meeting, with the
        #: ids of the ranges each carries.
        self._carrying: Dict[_Stream, set] = {}
        cluster.side_transports[interval_ms] = self
        cluster.sim.call_after(interval_ms, self._tick)

    @classmethod
    def register(cls, rng: "Range", interval_ms: float) -> None:
        transport = (rng.cluster.side_transports.get(interval_ms)
                     or cls(rng.cluster, interval_ms))
        transport.ranges.append(rng)
        transport._joined.append(rng)

    # -- sender ----------------------------------------------------------------

    def _moved(self, network) -> bool:
        """Has a range been destroyed, or moved its lease, leader,
        membership or policy, or a leaseholder node died or come back,
        since the layout?"""
        for rec in self._watched:
            rng = rec.rng
            if (rng._destroyed or rng.routing_generation != rec.generation
                    or rec.group.leader_node_id != rec.leader_id
                    or rng.policy is not rec.policy):
                return True
        for rng in self._joined:
            if rng._destroyed:
                return True
        faults = network.faults
        if faults.generation != self._faults_seen:
            # Only a fault-plane change can kill or revive a node.
            for node_id, dead in self._liveness.items():
                if faults.node_is_dead(node_id) != dead:
                    return True
            self._faults_seen = faults.generation
        return False

    def _relayout(self, network) -> None:
        """Lay every live range out afresh.  A range keeps its table
        entries only if its slot and every (stream, follower) are
        unchanged; a stream drops the entries of ranges it no longer
        carries."""
        previous = {rec.rng.range_id: rec for rec in self._carried}
        self._watched, self._carried = [], []
        self._liveness, self._clock_slots, self._carrying = {}, {}, {}
        self.ranges = [r for r in self.ranges if not r._destroyed]
        for rng in self.ranges:
            self._lay(rng, network, previous)
        for stream in self._streams.values():
            ids = self._carrying.get(stream, ())
            gone = [r for r in stream.table if r not in ids]
            if gone and stream.shared:
                stream.unshare()
            for range_id in gone:
                del stream.table[range_id]
        self._laid_out(network)

    def _laid_out(self, network) -> None:
        self._joined = []
        self._faults_seen = network.faults.generation
        self._clocks = [(clock, tuple(slots.items()))
                        for clock, slots in self._clock_slots.values()]

    def _lay(self, rng: "Range", network,
             previous: Dict[int, _Carried]) -> None:
        """Add ``rng`` to the layout: its slot and, unless its leaseholder
        is missing or dead, its streams."""
        rec = _Carried(rng)
        self._watched.append(rec)
        lh_id = rng.leaseholder_node_id
        if lh_id is None:
            return
        dead = self._liveness[lh_id] = network.node_is_dead(lh_id)
        if dead:
            return
        key = (lh_id, rng.policy)
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = len(self._slots)
        rec.slot = slot
        clock_slots = self._clock_slots.get(lh_id)
        if clock_slots is None:
            clock_slots = self._clock_slots[lh_id] = (
                rng.leaseholder_node.clock, {})
        clock_slots[1][slot] = rng.policy
        group = rng.group
        leader = rec.leader = group.leader
        self._carried.append(rec)
        if group.coalesce_ms is not None:
            return
        src = leader.node
        links = rec.links = []
        for peer in group.peers.values():
            if peer is leader:
                continue
            dst = peer.node
            pair = (src.node_id, dst.node_id)
            stream = self._streams.get(pair)
            if stream is None:
                stream = self._streams[pair] = _Stream(network, src, dst)
            ids = self._carrying.get(stream)
            if ids is None:
                ids = self._carrying[stream] = set()
            ids.add(rng.range_id)
            links.append((stream, peer))
        prev = previous.get(rng.range_id)
        if (prev is not None and prev.slot == slot and prev.links is not None
                and _same_links(prev.links, links)):
            rec.commit, rec.committed, rec.ts = (prev.commit,
                                                 prev.committed, prev.ts)

    def _tick(self) -> None:
        network = self.cluster.network
        if self._moved(network):
            self._relayout(network)
        elif self._joined:
            for rng in self._joined:
                self._lay(rng, network, {})
            self._laid_out(network)
        if not self.ranges:
            # Nothing left to ship: stop, and let a later registration
            # start a fresh ticker.
            del self.cluster.side_transports[self.interval_ms]
            return
        frame = _Frame(self._frame, len(self._slots))
        self._frame = frame
        targets, before, rose = frame.targets, frame.before, frame.rose
        # One HLC reading per leaseholder node, one target per slot.
        for clock, slots in self._clocks:
            now = clock.now()
            for slot, policy in slots:
                target = targets[slot] = policy.target(now)
                prev = before[slot]
                if prev is None or target > prev:
                    rose[slot] = True
                elif prev > target:
                    # Only a monotone target makes the identity tests
                    # below exact; compare in full should one fall.
                    before[slot] = None
                    rose[slot] = True
        for rec in self._carried:
            rng = rec.rng
            slot = rec.slot
            target = own = targets[slot]
            # A closed timestamp still at its slot's previous target is
            # below this one exactly when the slot's target rose.
            prev = before[slot]
            emitted = rng.closed_emitted
            if emitted is prev:
                if rose[slot]:
                    rng.closed_emitted = target
            elif target > emitted:
                rng.closed_emitted = target
            elif emitted > target:
                own = emitted
            leader = rec.leader
            closed = leader.closed_ts
            if (rose[slot] if closed is prev and own is target
                    else own > closed):
                leader.closed_ts = own
            group = rec.group
            links = rec.links
            if links is None:
                # Coalescing groups batch per range and window instead.
                group.broadcast_closed_ts(own)
                continue
            commit = group.commit_index
            committed = group._last_committed
            if ((own is target or own is rec.ts) and commit == rec.commit
                    and committed is rec.committed):
                continue
            rec.commit, rec.committed, rec.ts = commit, committed, own
            range_id = rng.range_id
            for stream, peer in links:
                if stream.shared:
                    stream.unshare()
                stream.table[range_id] = (group, peer, slot, own, commit,
                                          committed)
        for stream in self._carrying:
            stream.shared = True
            network.send(stream.src, stream.dst, stream.deliver, frame,
                         stream.table)
        self.cluster.sim.call_after(self.interval_ms, self._tick)
