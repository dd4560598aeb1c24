"""Network latency model.

Latency between nodes is derived from their localities:

* same node:          ~0 (loopback)
* same zone:          LAN round trip (default 0.5 ms)
* same region:        inter-zone round trip (default 1.0 ms)
* different regions:  the inter-region RTT matrix

The default matrix is Table 1 of the paper (measured GCP round-trip
times in milliseconds).  Regions not present in a matrix fall back to a
synthetic great-circle-flavoured estimate so experiments can scale to
arbitrarily many regions (Fig 6 uses 26).

The model supports per-message jitter and, through the
:class:`FaultPlane`, a full chaos-engineering fault surface: symmetric
region partitions (legacy), *asymmetric* per-link cuts (node-pair or
region-pair, one direction at a time), seeded per-link packet loss,
latency multipliers (gray/slow nodes and congested links), and node
crash-restart cycles.  All fault sampling is deterministic under the
plane's seed.
"""

from __future__ import annotations

import random
from functools import cache
from typing import Callable, Dict, Generator, Iterable, List, Optional, Tuple, Union

from .core import Future, Process, SimulationError, Simulator

__all__ = [
    "TABLE1_RTT_MS",
    "TABLE1_REGIONS",
    "FaultPlane",
    "LatencyModel",
    "Network",
    "NetworkUnavailableError",
    "RpcFuture",
    "RpcTimeoutError",
    "synthetic_rtt_matrix",
]

#: Table 1 of the paper: inter-region round-trip times in milliseconds.
TABLE1_REGIONS = (
    "us-east1",
    "us-west1",
    "europe-west2",
    "asia-northeast1",
    "australia-southeast1",
)

_TABLE1_UPPER = {
    ("us-east1", "us-west1"): 63.0,
    ("us-east1", "europe-west2"): 87.0,
    ("us-east1", "asia-northeast1"): 155.0,
    ("us-east1", "australia-southeast1"): 198.0,
    ("us-west1", "europe-west2"): 132.0,
    ("us-west1", "asia-northeast1"): 90.0,
    ("us-west1", "australia-southeast1"): 156.0,
    ("europe-west2", "asia-northeast1"): 222.0,
    ("europe-west2", "australia-southeast1"): 274.0,
    ("asia-northeast1", "australia-southeast1"): 113.0,
}


def _symmetrize(upper: Dict[Tuple[str, str], float]) -> Dict[Tuple[str, str], float]:
    full = {}
    for (a, b), rtt in upper.items():
        full[(a, b)] = rtt
        full[(b, a)] = rtt
    return full


TABLE1_RTT_MS: Dict[Tuple[str, str], float] = _symmetrize(_TABLE1_UPPER)


def synthetic_rtt_matrix(regions: Iterable[str], seed: int = 7,
                         min_rtt: float = 20.0,
                         max_rtt: float = 280.0) -> Dict[Tuple[str, str], float]:
    """Generate a plausible symmetric RTT matrix for arbitrary regions.

    Each region gets a point on a ring; RTT grows with ring distance,
    spanning roughly the same 20-280 ms envelope as Table 1.  Used by the
    Fig 6 scalability experiment, which needs 26 regions.
    """
    regions = list(regions)
    rng = random.Random(seed)
    positions = {r: i / len(regions) for i, r in enumerate(regions)}
    matrix: Dict[Tuple[str, str], float] = {}
    for a in regions:
        for b in regions:
            if a == b:
                continue
            distance = abs(positions[a] - positions[b])
            distance = min(distance, 1.0 - distance) * 2.0  # 0..1 around ring
            base = min_rtt + (max_rtt - min_rtt) * distance
            noise = rng.uniform(0.9, 1.1)
            key = (a, b) if a < b else (b, a)
            if key not in matrix:
                matrix[key] = base * noise
    return _symmetrize(matrix)


class NetworkUnavailableError(Exception):
    """The destination is unreachable (partition or dead node)."""


class RequestNotSentError(NetworkUnavailableError):
    """The request never left the sender (connection refused, breaker
    open, own node down): unlike a request or reply lost in flight, it
    certainly did not execute."""


class RpcTimeoutError(NetworkUnavailableError):
    """An RPC gave no answer in time (lost packet, gray node, hang).

    Subclasses :class:`NetworkUnavailableError` so every retry/failover
    path that tolerates partitions also tolerates timeouts."""


#: Link endpoints are node ids (int) or region names (str).
LinkEnd = Union[int, str]


class FaultPlane:
    """Deterministic fault state consulted on every message.

    Directional by design: ``cut_link(a, b)`` blocks only a→b traffic,
    which is what makes asymmetric-partition scenarios (acks lost while
    appends still flow) expressible.  Loss and latency factors compose:
    a message samples loss once per matching link rule, and its latency
    is multiplied by every matching factor.
    """

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed ^ 0x5EED_FA17)
        #: Bumped on every mutation; caches keyed on fault state (message
        #: fast paths, leaseholder routing) compare generations instead of
        #: re-walking the tables.
        self.generation = 0
        #: True iff any fault is currently installed.  The message hot
        #: path consults this one flag; with no faults the per-message
        #: blocked/loss/latency-factor table walks are skipped entirely
        #: (they could only return the identity answers).
        self.active = False
        self.dead_nodes = set()
        #: Directional cuts: (src_node_id, dst_node_id).
        self.cut_node_links = set()
        #: Directional cuts: (src_region, dst_region).
        self.cut_region_links = set()
        #: Directional loss probability per link.
        self.loss_node_links: Dict[Tuple[int, int], float] = {}
        self.loss_region_links: Dict[Tuple[str, str], float] = {}
        #: Directional latency multipliers per link.
        self.latency_node_links: Dict[Tuple[int, int], float] = {}
        self.latency_region_links: Dict[Tuple[str, str], float] = {}
        #: Per-node latency multiplier (gray node: slow in and out).
        self.slow_nodes: Dict[int, float] = {}
        #: node_id -> number of completed crash/restart cycles.
        self.restart_counts: Dict[int, int] = {}

    def _mutated(self) -> None:
        """Every mutator funnels through here: bump the generation and
        recompute the ``active`` flag."""
        self.generation += 1
        self.active = bool(
            self.dead_nodes or self.cut_node_links or self.cut_region_links
            or self.loss_node_links
            or self.loss_region_links or self.latency_node_links
            or self.latency_region_links or self.slow_nodes)

    # -- node faults --------------------------------------------------------

    def kill_node(self, node_id: int) -> None:
        self.dead_nodes.add(node_id)
        self._mutated()

    def revive_node(self, node_id: int) -> None:
        if node_id in self.dead_nodes:
            self.dead_nodes.discard(node_id)
            self.restart_counts[node_id] = (
                self.restart_counts.get(node_id, 0) + 1)
            self._mutated()

    def node_is_dead(self, node_id: int) -> bool:
        return node_id in self.dead_nodes

    def slow_node(self, node_id: int, factor: float) -> None:
        """Gray node: every message in or out takes ``factor`` x longer."""
        self.slow_nodes[node_id] = factor
        self._mutated()

    def restore_node_speed(self, node_id: int) -> None:
        self.slow_nodes.pop(node_id, None)
        self._mutated()

    # -- link faults --------------------------------------------------------

    @staticmethod
    def _links(src: LinkEnd, dst: LinkEnd,
               bidirectional: bool) -> List[Tuple[LinkEnd, LinkEnd]]:
        return [(src, dst), (dst, src)] if bidirectional else [(src, dst)]

    def cut_link(self, src: LinkEnd, dst: LinkEnd,
                 bidirectional: bool = False) -> None:
        """Cut src→dst traffic (node ids or region names)."""
        for a, b in self._links(src, dst, bidirectional):
            if isinstance(a, str):
                self.cut_region_links.add((a, b))
            else:
                self.cut_node_links.add((a, b))
        self._mutated()

    def heal_link(self, src: LinkEnd, dst: LinkEnd,
                  bidirectional: bool = False) -> None:
        for a, b in self._links(src, dst, bidirectional):
            if isinstance(a, str):
                self.cut_region_links.discard((a, b))
            else:
                self.cut_node_links.discard((a, b))
        self._mutated()

    def set_loss(self, src: LinkEnd, dst: LinkEnd, probability: float,
                 bidirectional: bool = True) -> None:
        """Drop src→dst messages with the given probability (0 clears)."""
        for a, b in self._links(src, dst, bidirectional):
            table = (self.loss_region_links if isinstance(a, str)
                     else self.loss_node_links)
            if probability <= 0.0:
                table.pop((a, b), None)
            else:
                table[(a, b)] = probability
        self._mutated()

    def set_latency_factor(self, src: LinkEnd, dst: LinkEnd, factor: float,
                           bidirectional: bool = True) -> None:
        """Multiply src→dst latency by ``factor`` (1.0 clears)."""
        for a, b in self._links(src, dst, bidirectional):
            table = (self.latency_region_links if isinstance(a, str)
                     else self.latency_node_links)
            if factor == 1.0:
                table.pop((a, b), None)
            else:
                table[(a, b)] = factor
        self._mutated()

    def heal_all_links(self) -> None:
        """Clear every link-level fault (cuts, loss, latency); leave
        dead nodes to their own heals."""
        self.cut_node_links.clear()
        self.cut_region_links.clear()
        self.loss_node_links.clear()
        self.loss_region_links.clear()
        self.latency_node_links.clear()
        self.latency_region_links.clear()
        self.slow_nodes.clear()
        self._mutated()

    # -- queries ------------------------------------------------------------

    def blocked(self, src, dst) -> bool:
        """Is src→dst traffic blocked (directional)?"""
        if src.node_id in self.dead_nodes or dst.node_id in self.dead_nodes:
            return True
        if (src.node_id, dst.node_id) in self.cut_node_links:
            return True
        return ((src.locality.region, dst.locality.region)
                in self.cut_region_links)

    def should_drop(self, src, dst) -> bool:
        """Sample packet loss for one src→dst message (seeded)."""
        p = self.loss_node_links.get((src.node_id, dst.node_id), 0.0)
        if p > 0.0 and self._rng.random() < p:
            return True
        p = self.loss_region_links.get(
            (src.locality.region, dst.locality.region), 0.0)
        return p > 0.0 and self._rng.random() < p

    def latency_factor(self, src, dst) -> float:
        factor = self.latency_node_links.get((src.node_id, dst.node_id), 1.0)
        factor *= self.latency_region_links.get(
            (src.locality.region, dst.locality.region), 1.0)
        factor *= self.slow_nodes.get(src.node_id, 1.0)
        factor *= self.slow_nodes.get(dst.node_id, 1.0)
        return factor


class LatencyModel:
    """Computes one-way latency between two localities."""

    def __init__(self,
                 rtt_matrix: Optional[Dict[Tuple[str, str], float]] = None,
                 same_zone_rtt: float = 0.5,
                 same_region_rtt: float = 1.0,
                 default_remote_rtt: float = 150.0,
                 jitter_fraction: float = 0.05,
                 seed: int = 0):
        self.rtt_matrix = dict(TABLE1_RTT_MS if rtt_matrix is None else rtt_matrix)
        self.same_zone_rtt = same_zone_rtt
        self.same_region_rtt = same_region_rtt
        self.default_remote_rtt = default_remote_rtt
        self.jitter_fraction = jitter_fraction
        self._rng = random.Random(seed)

    def rtt(self, region_a: str, zone_a: str, region_b: str, zone_b: str) -> float:
        """Nominal round-trip time between two (region, zone) localities."""
        if region_a == region_b:
            return self.same_zone_rtt if zone_a == zone_b else self.same_region_rtt
        return self.rtt_matrix.get((region_a, region_b), self.default_remote_rtt)

    def one_way(self, region_a: str, zone_a: str, region_b: str, zone_b: str) -> float:
        """One-way latency for a single message, with jitter applied."""
        base = self.rtt(region_a, zone_a, region_b, zone_b) / 2.0
        if self.jitter_fraction <= 0:
            return base
        return base * (1.0 + self._rng.uniform(0.0, self.jitter_fraction))


class RpcFuture(Future):
    """The one future of a :meth:`Network.call`; it carries the RPC's
    deadline.  The network completes it by calling it (the reply event, a
    fault-plane rejection, the loss timer), which cancels the deadline.
    A deadline that fires first rejects it with the caller's error, and
    what the network delivers after that is dropped.  Any other second
    completion raises :class:`SimulationError`.  :meth:`_reply` is the
    handler process's callback at the destination: no closure per RPC.
    """

    __slots__ = ("_net", "_src", "_dst", "_span", "_deadline")

    def __init__(self, net: "Network", src, dst, span) -> None:
        super().__init__(net.sim)
        self._net = net
        self._src = src
        self._dst = dst
        self._span = span
        #: The armed deadline event; still set once it has fired, which
        #: is how a late outcome knows it is late.
        self._deadline = None

    def __call__(self, value=None, error=None) -> None:
        deadline = self._deadline
        if deadline is not None:
            if self._done:
                return  # the deadline fired first: drop the late outcome
            self._deadline = None
            self.sim.cancel(deadline)
        Future.__call__(self, value, error)

    def _complete(self, value, error) -> None:
        # ``resolve`` / ``reject``: only the network's outcomes may be late.
        if self._done:
            raise SimulationError("future resolved twice")
        self(value, error)

    def _expire(self, error) -> None:
        Future.__call__(self, None, error if isinstance(error, BaseException)
                        else error())

    def _reply(self, process: Process) -> None:
        self._net._send_reply(process, self)


class Network:
    """Message fabric connecting cluster nodes.

    The primary primitive is :meth:`call`: an RPC that delivers a request
    to the destination after one-way latency, runs a handler coroutine
    there, and delivers the reply after another one-way latency.  Region
    partitions cause calls to reject with
    :class:`NetworkUnavailableError`.
    """

    #: Fixed per-message processing overhead (serialization, kernel, ...).
    PROCESSING_MS = 0.05
    #: How long a caller waits before concluding a lost packet killed the
    #: RPC (models TCP retransmission giving up, keeps futures settling).
    LOSS_TIMEOUT_MS = 200.0

    #: Raw-sample cap for the per-link hop-latency histograms (count /
    #: sum / min / max stay exact past it; see Histogram.max_samples).
    HOP_HISTOGRAM_SAMPLES = 8192

    def __init__(self, sim: Simulator, latency: Optional[LatencyModel] = None,
                 seed: int = 0):
        self.sim = sim
        self.latency = latency or LatencyModel()
        self.faults = FaultPlane(seed)
        #: Hot-path caches: the jitter fraction and RNG are fixed at
        #: construction (nothing mutates the latency model afterwards),
        #: and the prebound ``call_after`` saves an attribute lookup plus
        #: a bound-method allocation per message.
        self._jitter = self.latency.jitter_fraction
        self._jrand = self.latency._rng.random
        self._schedule = sim.call_after
        registry = sim.obs.registry
        self._tag = sim.obs.tracer.tag
        self._c_sent = registry.counter("net.messages_sent")
        self._c_dropped = registry.counter("net.messages_dropped")
        #: Drop reason -> its ``net.drops`` counter, looked up once, on
        #: the first such drop (a fault-free run exports no zero rows).
        self._c_drops = cache(
            lambda reason: registry.counter("net.drops", reason=reason))
        self.bytes_by_region_pair: Dict[Tuple[str, str], int] = {}
        #: Per-(src_node, dst_node) hop cache: (rtt/2 or None for
        #: loopback, per-link histogram, region pair).
        #: Localities and the RTT matrix are fixed for a cluster's
        #: lifetime, so entries never invalidate; only fault state is
        #: re-checked per message (via ``faults.active``).
        self._hop_cache: Dict[Tuple[int, int], tuple] = {}
        #: Callbacks fired with a node_id when that node restarts.
        self._restart_listeners: List[Callable[[int], None]] = []
        #: Clock-sync monitor (``repro.cluster.clocksync``), or None.
        #: While set, :meth:`send` piggybacks the sender's clock reading
        #: on every one-way message; RPCs carry none.
        self.clock_monitor = None
        #: interval ms -> the Raft retransmission ticker every group on
        #: this network retransmits behind
        #: (``repro.raft.group.RetransmitTicker``).
        self.raft_tickers: Dict[float, object] = {}

    @property
    def messages_sent(self) -> int:
        return int(self._c_sent.value)

    @property
    def messages_dropped(self) -> int:
        """Messages lost to partitions, dead nodes, or packet loss —
        includes `send`'s previously-silent drops."""
        return int(self._c_dropped.value)

    def _drop(self, reason: str) -> None:
        self._c_dropped.inc()
        self._c_drops(reason).inc()

    def _make_hop_entry(self, src, dst) -> tuple:
        """Build and cache the static per-link state consulted on every
        message: half-RTT, the hop histogram (resolved once instead of a
        label f-string + registry lookup per message; ``None`` with
        observability off — one of the two distributions the mode
        gates) and region pair."""
        src_loc, dst_loc = src.locality, dst.locality
        if self.sim.obs.enabled:
            hist = self.sim.obs.registry.histogram(
                "net.hop_ms", link=f"{src_loc.region}->{dst_loc.region}")
            if hist.max_samples is None:
                hist.max_samples = self.HOP_HISTOGRAM_SAMPLES
        else:
            hist = None
        half = (None if src.node_id == dst.node_id else
                self.latency.rtt(src_loc.region, src_loc.zone,
                                 dst_loc.region, dst_loc.zone) / 2.0)
        entry = (half, hist, (src_loc.region, dst_loc.region))
        self._hop_cache[(src.node_id, dst.node_id)] = entry
        return entry

    def _entry_delay(self, entry, src, dst) -> float:
        """One-way delay for one message, recorded on the link histogram.

        Zero-fault fast path: with ``faults.active`` False the only
        per-message work is the jitter draw — the latency-factor table
        walk is skipped because every factor is 1.0 (and ``x * 1.0`` is
        an IEEE identity, so the skipped multiply is byte-identical).
        The jitter draw itself uses the same RNG in the same order as
        :meth:`LatencyModel.one_way`, keeping runs deterministic across
        the fast and slow paths.
        """
        half = entry[0]
        if half is None:
            delay = 0.01
        elif self.faults.active:
            delay = self.one_way_latency(src, dst)
        else:
            jitter = self._jitter
            if jitter > 0.0:
                # Same draw as Random.uniform(0.0, jitter) — one
                # random() call, bit-identical value — minus the frame.
                delay = (half * (1.0 + self._jrand() * jitter)
                         + self.PROCESSING_MS)
            else:
                delay = half + self.PROCESSING_MS
        if entry[1] is not None:
            entry[1].observe(delay)
        return delay

    # -- failure injection ------------------------------------------------

    def kill_node(self, node_id: int) -> None:
        self.faults.kill_node(node_id)

    def crash_node(self, node_id: int) -> None:
        """Crash (same as kill; named for crash-restart cycles)."""
        self.faults.kill_node(node_id)

    def restart_node(self, node_id: int) -> None:
        """Revive a crashed node and notify restart listeners.

        The node rejoins with all durable state (Raft logs, MVCC data)
        intact; listeners — wired by the Cluster — trigger Raft
        catch-up so the node re-acks and rejoins quorum."""
        self.faults.revive_node(node_id)
        for listener in self._restart_listeners:
            listener(node_id)

    def on_node_restart(self, listener: Callable[[int], None]) -> None:
        self._restart_listeners.append(listener)

    def node_is_dead(self, node_id: int) -> bool:
        return self.faults.node_is_dead(node_id)

    def reachable(self, src, dst) -> bool:
        """Public directional reachability check (fault plane view)."""
        return not self.faults.blocked(src, dst)

    def one_way_latency(self, src, dst) -> float:
        if src.node_id == dst.node_id:
            return 0.01
        base = self.latency.one_way(
            src.locality.region, src.locality.zone,
            dst.locality.region, dst.locality.zone) + self.PROCESSING_MS
        return base * self.faults.latency_factor(src, dst)

    def call(self, src, dst, handler: Callable[..., Generator], *args,
             payload_size: int = 1, span: int = 0,
             timeout_ms: Optional[float] = None,
             timeout_error=None) -> "RpcFuture":
        """RPC from node ``src`` to node ``dst``.

        ``handler(*args)`` returns a generator; it runs *on the
        destination* (in sim terms: after the request has been
        delivered).  The returned future resolves with the handler's
        return value after the reply propagates back, or rejects if the
        handler raises or the destination is unreachable.

        ``timeout_ms`` arms the RPC's deadline: if nothing has landed by
        then, the future rejects with ``timeout_error``, an exception or
        a zero-argument factory for one (hot callers pass a factory:
        deadlines almost never fire).  See :class:`RpcFuture`.

        ``span``, when a nonzero span id, gets per-hop latency
        attribution tags (``req_ms`` / ``reply_ms``) so a trace shows how
        much of an RPC was wire time versus handler time.
        """
        fut = RpcFuture(self, src, dst, span)
        # Fault checks only run when some fault is installed; with a
        # clean plane they could only return "deliver normally".
        faults = self.faults
        if faults.active and faults.blocked(src, dst):
            # The rejection is already on its way: no deadline to arm.
            self._drop("unreachable")
            self._tag(span, "net", "unreachable")
            self.sim._call_soon(fut, None, RequestNotSentError(
                f"node {dst.node_id} unreachable from {src.node_id}"))
            return fut
        if faults.active and faults.should_drop(src, dst):
            # Request lost in flight: the caller only learns via timeout.
            self._drop("request_loss")
            self._tag(span, "net", "request_lost")
            self.sim.call_after(
                self.LOSS_TIMEOUT_MS, fut, None,
                RpcTimeoutError(f"request to node {dst.node_id} lost"))
        else:
            self._c_sent.value += 1  # inc(), minus a frame per message
            entry = self._hop_cache.get((src.node_id, dst.node_id))
            if entry is None:
                entry = self._make_hop_entry(src, dst)
            pair = entry[2]
            self.bytes_by_region_pair[pair] = (
                self.bytes_by_region_pair.get(pair, 0) + payload_size)
            request_delay = self._entry_delay(entry, src, dst)
            if span:
                self._tag(span, "req_ms", request_delay)
            self._schedule(request_delay, self._deliver_request,
                           fut, handler, args)
        if timeout_ms is not None:
            fut._deadline = self._schedule(timeout_ms, fut._expire,
                                           timeout_error)
        return fut

    def _deliver_request(self, fut: "RpcFuture", handler, args) -> None:
        faults = self.faults
        if faults.active and faults.blocked(fut._src, fut._dst):
            self._drop("died_in_flight")
            fut(None, NetworkUnavailableError(
                f"node {fut._dst.node_id} died in flight"))
            return
        self.sim.spawn(handler(*args)).add_callback(fut._reply)

    def _send_reply(self, process: Process, fut: "RpcFuture") -> None:
        # The handler ran on the destination; re-check the *reply*
        # direction — a partition or node death during handler
        # execution must not deliver the answer.  (The handler's
        # side effects, e.g. a laid intent, stand: that asymmetry
        # is what ambiguous-commit handling exists for.)
        src, dst = fut._src, fut._dst
        faults = self.faults
        if faults.active:
            if faults.blocked(dst, src):
                self._drop("reply_blocked")
                self.sim._call_soon(fut, None, NetworkUnavailableError(
                    f"reply from node {dst.node_id} undeliverable"))
                return
            if faults.should_drop(dst, src):
                self._drop("reply_loss")
                self.sim.call_after(
                    self.LOSS_TIMEOUT_MS, fut, None,
                    RpcTimeoutError(f"reply from node {dst.node_id} lost"))
                return
        self._c_sent.value += 1  # inc(), minus a frame per message
        entry = self._hop_cache.get((dst.node_id, src.node_id))
        if entry is None:
            entry = self._make_hop_entry(dst, src)
        reply_delay = self._entry_delay(entry, dst, src)
        if fut._span:
            self._tag(fut._span, "reply_ms", reply_delay)
        error = process.error
        if error is not None:
            self._schedule(reply_delay, fut, None, error)
        else:
            self._schedule(reply_delay, fut, process._value)

    def send(self, src, dst, callback: Callable[..., None], *args,
             after_ms: float = 0.0) -> None:
        """One-way, fire-and-forget message (e.g. Raft appends).

        The delay computation is ``_entry_delay`` inlined: this is the
        single hottest network entry point (every Raft append and ack,
        side-transport message and heartbeat), and the two wrapper
        frames cost more than the work itself.  ``callback(*args)`` runs
        at the destination after one-way latency — passing args here instead
        of closing over them saves a closure allocation per message on
        the Raft paths.  The delivery is one ordinary timer event whose
        cancellation handle is dropped: nothing cancels a message once
        it is in flight.

        ``after_ms`` is sender-side work the message waits for before it
        departs (a follower's disk append before its ack): it is added
        to the one delivery event instead of costing a timer of its
        own.  Everything else — reachability, loss, the jitter draw, the
        hop histogram's wire time — is decided now, at the call.

        With a :attr:`clock_monitor` installed the message also carries
        the sender's clock reading at departure (``after_ms`` from now),
        which the monitor folds in at the destination before
        ``callback`` runs.
        """
        faults = self.faults
        if faults.active and (faults.blocked(src, dst)
                              or faults.should_drop(src, dst)):
            self._drop("send_blocked")
            return
        self._c_sent.value += 1  # inc(), minus a frame per message
        entry = self._hop_cache.get((src.node_id, dst.node_id))
        if entry is None:
            entry = self._make_hop_entry(src, dst)
        half = entry[0]
        if half is None:
            delay = 0.01
        elif faults.active:
            delay = self.one_way_latency(src, dst)
        else:
            jitter = self._jitter
            if jitter > 0.0:
                delay = (half * (1.0 + self._jrand() * jitter)
                         + self.PROCESSING_MS)
            else:
                delay = half + self.PROCESSING_MS
        hist = entry[1]
        if hist is not None:
            hist.observe(delay)
        monitor = self.clock_monitor
        if monitor is None:
            self._schedule(delay + after_ms, callback, *args)
            return
        reading = monitor.cluster.clock.physical_now(
            src.node_id, self.sim.now + after_ms)
        self._schedule(delay + after_ms, monitor.deliver, dst.node_id,
                       src.node_id, reading, callback, args)
