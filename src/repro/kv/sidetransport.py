"""The closed-timestamp side transport: one stream per node pair.

An idle range's closed timestamp still has to advance on its followers
(paper §5.1.1), so every leaseholder periodically ships it.  As in CRDB,
the unit of shipping is the *node pair*, not the range: one ticker per
(cluster, interval) computes the closed target of every range registered
with it and sends one message per (leaseholder node, follower node)
carrying the update of every range the two nodes share.  A cluster with
K idle ranges led from one node costs one message per follower node per
tick, not K.

All ranges of an interval tick on one shared phase (the ticker's, set by
the first range to register); a range that registers between ticks is
shipped from the next one, so a follower's closed timestamp is at most
one interval plus one flight stale — what ``LeadPolicy.for_range``
already budgets for.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster.topology import Cluster
    from .range import Range

__all__ = ["SideTransport"]


class SideTransport:
    """The ticker of every range of ``cluster`` shipped every
    ``interval_ms``.  Lives in ``cluster.side_transports`` while it has
    ranges; :meth:`Range.start_side_transport` is the way in."""

    def __init__(self, cluster: "Cluster", interval_ms: float):
        self.cluster = cluster
        self.interval_ms = interval_ms
        #: Registration order, which fixes the order of sends per tick.
        self.ranges: List["Range"] = []
        cluster.side_transports[interval_ms] = self
        cluster.sim.call_after(interval_ms, self._tick)

    @classmethod
    def register(cls, rng: "Range", interval_ms: float) -> None:
        transport = (rng.cluster.side_transports.get(interval_ms)
                     or cls(rng.cluster, interval_ms))
        transport.ranges.append(rng)

    def _tick(self) -> None:
        network = self.cluster.network
        #: (leader node id, follower node id) -> (src, dst, updates)
        batches: Dict[Tuple[int, int], tuple] = {}
        live = self.ranges = [r for r in self.ranges if not r._destroyed]
        for rng in live:
            leaseholder_id = rng.leaseholder_node_id
            if leaseholder_id is None or network.node_is_dead(leaseholder_id):
                continue
            target = rng.closed_target()
            rng._note_closed(target)
            group = rng.group
            if group.coalesce_ms is not None:
                # Coalescing groups batch per range and window instead.
                group.broadcast_closed_ts(target)
                continue
            src = group.leader.node
            for update in group.closed_ts_updates(target):
                dst = update[1].node
                pair = (src.node_id, dst.node_id)
                batch = batches.get(pair)
                if batch is None:
                    batch = batches[pair] = (src, dst, [])
                batch[2].append(update)
        for src, dst, updates in batches.values():
            network.send(src, dst, self._deliver, updates)
        if live:
            self.cluster.sim.call_after(self.interval_ms, self._tick)
        else:
            # Nothing left to ship: stop, and let a later registration
            # start a fresh ticker.
            del self.cluster.side_transports[self.interval_ms]

    @staticmethod
    def _deliver(updates: list) -> None:
        for group, peer, closed_ts, commit_index, last_committed in updates:
            # The peer may have left the group while the message flew.
            if group.peers.get(peer.node.node_id) is peer:
                group._deliver_closed_ts(peer, closed_ts, commit_index,
                                         last_committed)
