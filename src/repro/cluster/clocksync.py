"""Clock-safety monitoring and self-fencing (CRDB-style).

The uncertainty/commit-wait machinery is only correct while every pair
of clocks differs by at most ``max_clock_offset``.  CockroachDB does
not take that on faith: every node measures its offset from its peers
using timestamps piggybacked on RPCs it is already exchanging, and a
node that finds itself outside the bound **crashes itself** rather than
risk serving inconsistent reads.  This module reproduces that defense
on the simulated substrate:

* :class:`ClockMonitor` collects the clock reading ``Network.send``
  piggybacks on every one-way message (liveness heartbeats, Raft
  traffic, the closed-timestamp side transport; no extra messages), and
  maintains a per-(observer, peer) offset estimate corrected for the
  link's nominal one-way latency.
* When a node's own measurements show it beyond
  ``FENCE_THRESHOLD_FRACTION x max_clock_offset`` against a majority of
  the peers it has heard from, it **self-fences**: it stops serving,
  drops its leases, and takes itself down so store liveness walks it to
  DEAD and the replicate queue repairs around it.
* Independently of the (asynchronous) fencing loop, replicas consult
  :meth:`check_request` on every serve: a *non-synthetic* request
  timestamp further ahead of the local clock than any in-contract
  sender could produce is rejected outright — the synchronous backstop
  that closes the detection window between a clock jump and the fence.

Both defenses are off by default (``cluster.clock_monitor is None``);
the fencing-disabled ablation installs the monitor and turns its
``fence_enabled`` off, so offsets are still measured and exported but
nothing intervenes — letting the verify checker demonstrate the real
anomalies an undefended beyond-bound clock causes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import ClockFencedError, ClockOutlierRejectedError
from ..kv.closedts import closed_ts_within_contract

__all__ = ["ClockMonitor", "install_clock_monitor"]


class ClockMonitor:
    """Measures peer clock offsets and fences outlier nodes.

    One monitor serves the whole cluster but keeps strictly per-observer
    state: node A's estimate of node B's clock is only ever derived from
    messages A itself received, so a partitioned or dead observer's view
    goes stale exactly like its liveness view does.
    """

    #: Fence when measured offset exceeds this fraction of the bound
    #: (CRDB fences at 80% of max-offset to act before correctness is
    #: actually at risk).
    FENCE_THRESHOLD_FRACTION = 0.8
    #: Extra allowance on the synchronous request-timestamp check, over
    #: ``max_offset``: covers one-way flight time plus jitter so no
    #: in-contract sender can ever be rejected.
    REQUEST_SLACK_MS = 200.0
    #: An observer needs at least this many peer measurements before its
    #: majority vote can fence it (a single bad link must not kill a
    #: healthy node).
    MIN_PEERS = 2
    #: Both defenses act (fence outliers, reject out-of-contract
    #: timestamps).  Off only in the verify harness's
    #: ``clock-jump-nofence`` ablation, which still measures.
    fence_enabled = True

    def __init__(self, cluster):
        self.cluster = cluster
        self.sim = cluster.sim
        self.network = cluster.network
        self.max_offset = cluster.max_clock_offset
        self.fence_threshold_ms = (
            self.max_offset * self.FENCE_THRESHOLD_FRACTION)
        #: observer node_id -> peer node_id -> latest offset estimate
        #: (positive: the peer's clock is ahead of the observer's).
        self._estimates: Dict[int, Dict[int, float]] = {}
        #: Cached nominal one-way latency per (src, dst) node pair.
        self._expected_flight: Dict[Tuple[int, int], float] = {}
        #: (sim_ms, node_id, worst_measured_offset_ms) per fence.
        self.fence_events: List[Tuple[float, int, float]] = []
        #: (sim_ms, node_id, worst_measured_offset_ms) per detection —
        #: recorded even when fencing is disabled (the ablation's
        #: "we saw it and did nothing" evidence).
        self.outlier_detections: List[Tuple[float, int, float]] = []
        registry = self.sim.obs.registry
        self._registry = registry
        self._c_observations = registry.counter("clock.observations")
        self._c_rejected = registry.counter("clock.requests_rejected")
        self._gauges: Dict[int, object] = {}
        self.network.on_node_restart(self._on_restart)

    # -- measurement --------------------------------------------------------

    def _flight_ms(self, src_id: int, dst_id: int) -> float:
        cached = self._expected_flight.get((src_id, dst_id))
        if cached is None:
            src = self.cluster.node_by_id(src_id)
            dst = self.cluster.node_by_id(dst_id)
            latency = self.network.latency
            cached = (latency.rtt(src.locality.region, src.locality.zone,
                                  dst.locality.region, dst.locality.zone)
                      / 2.0 + self.network.PROCESSING_MS)
            self._expected_flight[(src_id, dst_id)] = cached
        return cached

    def observe(self, observer_id: int, peer_id: int,
                remote_physical: float) -> None:
        """Fold in a clock reading piggybacked on a delivered message.

        ``remote_physical`` is the sender's physical clock captured when
        the message was sent; the observer corrects for the link's
        nominal one-way latency and compares against its own clock.
        Jitter and queueing make the estimate honestly noisy — a few ms
        against a 250 ms bound.
        """
        try:
            observer = self.cluster.node_by_id(observer_id)
        except KeyError:
            return
        if not observer.alive or self.network.node_is_dead(observer_id):
            return
        local = observer.clock.physical_now()
        estimate = (remote_physical + self._flight_ms(peer_id, observer_id)
                    - local)
        self._c_observations.inc()
        peers = self._estimates.setdefault(observer_id, {})
        peers[peer_id] = estimate
        worst = max(abs(v) for v in peers.values())
        gauge = self._gauges.get(observer_id)
        if gauge is None:
            gauge = self._gauges[observer_id] = self._registry.gauge(
                "clock.offset_measured", node=observer_id)
        gauge.set(round(worst, 3))
        self._evaluate(observer, peers, worst)

    def deliver(self, observer_id: int, peer_id: int, reading: float,
                callback, args: tuple) -> None:
        """Deliver a one-way message that carries its sender's clock
        reading: fold the reading into the observer's view, then run
        ``callback(*args)``.  ``Network.send`` schedules this in place
        of the bare callback while the monitor is installed."""
        self.observe(observer_id, peer_id, reading)
        callback(*args)

    def estimate(self, observer_id: int, peer_id: int) -> Optional[float]:
        return self._estimates.get(observer_id, {}).get(peer_id)

    # -- fencing ------------------------------------------------------------

    def _evaluate(self, observer, peers: Dict[int, float],
                  worst: float) -> None:
        """Self-fence check from the observer's own measurements.

        A node whose clock is the outlier sees *every* peer as offset by
        roughly the same amount; a healthy node sees at most the one bad
        peer.  Majority vote over measured peers separates the two."""
        if observer.fenced or len(peers) < self.MIN_PEERS:
            return
        threshold = self.fence_threshold_ms
        bad = sum(1 for v in peers.values() if abs(v) > threshold)
        if bad <= len(peers) // 2:
            return
        self.outlier_detections.append(
            (self.sim.now, observer.node_id, worst))
        self._registry.counter("clock.outliers_detected",
                               node=observer.node_id).inc()
        if self.fence_enabled:
            self.fence(observer, worst)

    def fence(self, node, worst_ms: float) -> None:
        """Take the node out: stop serving, drop leases, go dark.

        Mirrors CRDB crashing a clock-outlier node.  The crash stops
        the node's heartbeats, so store liveness walks it SUSPECT→DEAD
        and the replicate queue (when running) repairs around it."""
        if node.fenced:
            return
        node.fenced = True
        self.fence_events.append((self.sim.now, node.node_id, worst_ms))
        self._registry.counter("clock.fence", node=node.node_id).inc()
        # Ranges whose lease the fenced node holds: fail them over to a
        # surviving voter once the node is down (a CRDB crash lets the
        # lease expire; the sim moves it eagerly and deterministically).
        lease_ranges = [replica.range for replica in node.replicas.values()
                        if replica.range.leaseholder_node_id == node.node_id]
        self.cluster.crash_node(node.node_id)
        for rng in lease_ranges:
            rng.maybe_failover()

    # -- synchronous serve-side check ---------------------------------------

    def check_request(self, node, ts) -> None:
        """Replica-side guard run before serving a request at ``ts``.

        Fenced nodes refuse everything.  Beyond that, a *non-synthetic*
        timestamp promises some clock has reached it; if it is further
        ahead of this node's clock than ``max_offset`` plus flight
        slack, the sender's clock is provably out of contract and the
        request is rejected before it can corrupt the MVCC timeline.
        Synthetic timestamps (GLOBAL-table future writes, lead closed
        timestamps) make no such promise and are exempt.
        """
        if node.fenced:
            raise ClockFencedError(node.node_id)
        if not self.fence_enabled or ts.synthetic:
            return
        local = node.clock.physical_now()
        if ts.physical > local + self.max_offset + self.REQUEST_SLACK_MS:
            self._c_rejected.inc()
            raise ClockOutlierRejectedError(node.node_id, ts.physical, local)

    def accepts_closed_ts(self, node, closed_ts) -> bool:
        """Follower-side guard on incoming closed timestamps: refuse
        non-synthetic targets only an out-of-contract leaseholder clock
        could have produced (see
        :func:`repro.kv.closedts.closed_ts_within_contract`).  A refusal
        counts one in ``clock.closed_ts_rejected``."""
        if not self.fence_enabled:
            return True
        if closed_ts_within_contract(closed_ts, node.clock.physical_now(),
                                     self.max_offset,
                                     self.REQUEST_SLACK_MS):
            return True
        self._registry.counter("clock.closed_ts_rejected",
                               node=node.node_id).inc()
        return False

    # -- lifecycle ----------------------------------------------------------

    def _on_restart(self, node_id: int) -> None:
        """A restarted node rejoins unfenced with a fresh view (its
        process restarted; NTP is presumed to have step-synced it —
        nemesis schedules that restart a node without healing its clock
        will simply re-fence it)."""
        try:
            node = self.cluster.node_by_id(node_id)
        except KeyError:
            return
        node.fenced = False
        self._estimates.pop(node_id, None)
        for peers in self._estimates.values():
            peers.pop(node_id, None)


def install_clock_monitor(cluster) -> ClockMonitor:
    """Create a :class:`ClockMonitor` and wire it into the cluster and
    network so every one-way message starts piggybacking its sender's
    clock reading.  Idempotent per cluster attribute."""
    monitor = ClockMonitor(cluster)
    cluster.clock_monitor = monitor
    cluster.network.clock_monitor = monitor
    return monitor
