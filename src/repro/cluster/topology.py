"""Cluster membership and topology helpers.

A :class:`Cluster` owns the simulator, the network fabric, the shared
skew model, and all nodes.  ``standard_cluster`` builds the layout used
throughout the paper's evaluation: N regions x Z zones x nodes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..kv.keyspace import Keyspace
from ..kv.sidetransport import SideTransport
from ..sim.clock import ClockModel
from ..sim.core import Simulator
from ..sim.network import LatencyModel, Network
from ..storage.locktable import WaitGraph
from ..txn.protocol import resolve_protocol
from .locality import Locality
from .node import Node

__all__ = ["Cluster", "standard_cluster"]


class Cluster:
    """All nodes plus the shared simulation infrastructure."""

    def __init__(self, sim: Simulator, network: Network,
                 max_clock_offset: float = 250.0,
                 skew_fraction: float = 0.5, seed: int = 0,
                 raft_coalesce_ms: Optional[float] = None):
        self.sim = sim
        self.network = network
        self.seed = seed
        #: Raft message coalescing window (ms) for every range created on
        #: this cluster; None disables coalescing (the default — it is a
        #: throughput/latency trade the benchmarks opt into explicitly).
        self.raft_coalesce_ms = raft_coalesce_ms
        #: Per-node clock model: static base offsets plus the dynamic
        #: fault surface (drift/jump/freeze) the clock nemesis drives.
        self.clock = ClockModel(max_clock_offset, seed=seed,
                                skew_fraction=skew_fraction, sim=sim)
        #: Clock-safety monitor (``repro.cluster.clocksync``); ``None``
        #: means clock monitoring/fencing is disabled and every gated
        #: path is a single attribute check — installed via
        #: ``install_clock_monitor``.
        self.clock_monitor = None
        # Crash-restart support: a restarted node keeps its durable
        # state but must catch up on Raft traffic it missed.
        network.on_node_restart(self._catch_up_restarted_node)
        self.nodes: List[Node] = []
        #: Shared wait-for graph for cross-range deadlock detection.
        self.wait_graph = WaitGraph()
        #: txn_id -> Transaction, from ``TransactionCoordinator.begin``
        #: until its protocol knows its last intent is resolved
        #: (``TransactionCoordinator.forget``); the authoritative status
        #: consulted by lock pushes (stands in for CRDB's txn records +
        #: coordinator heartbeats, which CRDB garbage-collects once the
        #: intents are resolved).  What stays is a transaction that is
        #: still running, whose commit is ambiguous, or whose cleanup
        #: failed.
        self.txn_registry: Dict[int, object] = {}
        #: Admission controller (``repro.admission``); ``None`` means
        #: admission control is disabled and every gated path is a
        #: single attribute check — installed via ``install_admission``.
        self.admission = None
        #: The cluster's one transaction backend (a
        #: :class:`~repro.txn.protocol.TxnProtocol`), shared by every
        #: coordinator on it; ``None`` until ``standard_cluster`` or the
        #: first coordinator chooses it.
        self.txn_protocol = None
        #: Shared epoch-OCC sequencer (``repro.txn.epoch``); created
        #: lazily by the first epoch-OCC coordinator on this cluster.
        self.epoch_service = None
        self._next_node_id = 1
        self._next_range_id = 1
        self._next_txn_id = 1
        #: The span registry: ranges are born into it; it splits and merges.
        self.keyspace = Keyspace(self)
        #: interval ms -> the closed-timestamp side transport shipping
        #: every range on that interval, one message per node pair
        #: (``repro.kv.sidetransport``).
        self.side_transports: Dict[float, SideTransport] = {}

    def txn_status(self, txn_id: int):
        """Authoritative transaction state for pushes.

        Returns None if unknown — never registered, or finished and
        forgotten once its intents were resolved — else ``(final,
        commit_ts)`` where ``final`` is True for committed/aborted
        transactions and ``commit_ts`` is the commit timestamp (None if
        aborted/pending).
        """
        txn = self.txn_registry.get(txn_id)
        if txn is None:
            return None
        status = getattr(txn, "status", "pending")
        if status == "committed":
            return True, txn.commit_ts
        if status == "aborted":
            return True, None
        return False, None

    @property
    def max_clock_offset(self) -> float:
        return self.clock.max_offset

    def add_node(self, locality: Locality) -> Node:
        node = Node(self.sim, self._next_node_id, locality, self.clock)
        self._next_node_id += 1
        self.nodes.append(node)
        return node

    def remove_node(self, node: Node) -> None:
        node.alive = False
        self.network.kill_node(node.node_id)

    # -- crash / restart ---------------------------------------------------

    def crash_node(self, node_id: int) -> None:
        """Crash a node: unreachable, but its durable state survives."""
        self.network.crash_node(node_id)

    def restart_node(self, node_id: int) -> None:
        """Restart a crashed node; it rejoins and catches up on Raft."""
        self.network.restart_node(node_id)

    def _catch_up_restarted_node(self, node_id: int) -> None:
        try:
            node = self.node_by_id(node_id)
        except KeyError:
            return
        for replica in node.replicas.values():
            replica.range.group.resync_peer(node_id)

    def allocate_range_id(self) -> int:
        range_id = self._next_range_id
        self._next_range_id += 1
        return range_id

    def allocate_txn_id(self) -> int:
        """A transaction id unique on this cluster, whichever
        coordinator begins the transaction."""
        txn_id = self._next_txn_id
        self._next_txn_id += 1
        return txn_id

    # -- lookups -----------------------------------------------------------

    def regions(self) -> List[str]:
        """Cluster regions: the union of node regions (paper §2.1)."""
        seen = []
        for node in self.nodes:
            if node.alive and node.locality.region not in seen:
                seen.append(node.locality.region)
        return seen

    def zones_in_region(self, region: str) -> List[str]:
        seen = []
        for node in self.nodes:
            if node.alive and node.locality.region == region:
                if node.locality.zone not in seen:
                    seen.append(node.locality.zone)
        return seen

    def nodes_in_region(self, region: str) -> List[Node]:
        return [n for n in self.nodes
                if n.alive and n.locality.region == region]

    def live_nodes(self) -> List[Node]:
        return [n for n in self.nodes if n.alive]

    def node_by_id(self, node_id: int) -> Node:
        for node in self.nodes:
            if node.node_id == node_id:
                return node
        raise KeyError(f"no node {node_id}")

    def gateway_for_region(self, region: str, index: int = 0) -> Node:
        """The node a client in ``region`` connects to (collocated)."""
        nodes = self.nodes_in_region(region)
        if not nodes:
            raise KeyError(f"no live nodes in region {region!r}")
        return nodes[index % len(nodes)]


def standard_cluster(regions: Sequence[str],
                     nodes_per_region: int = 3,
                     zones_per_region: int = 3,
                     max_clock_offset: float = 250.0,
                     skew_fraction: float = 0.5,
                     rtt_matrix: Optional[dict] = None,
                     jitter_fraction: float = 0.05,
                     seed: int = 0,
                     obs_enabled: bool = True,
                     trace_sample_every: int = 1,
                     raft_coalesce_ms: Optional[float] = None,
                     txn_protocol=None) -> Cluster:
    """Build the paper's standard layout: one node per zone per region.
    ``txn_protocol`` names the cluster's transaction backend."""
    sim = Simulator(obs_enabled=obs_enabled,
                    trace_sample_every=trace_sample_every)
    latency = LatencyModel(rtt_matrix=rtt_matrix, seed=seed,
                           jitter_fraction=jitter_fraction)
    network = Network(sim, latency, seed=seed)
    cluster = Cluster(sim, network, max_clock_offset=max_clock_offset,
                      skew_fraction=skew_fraction, seed=seed,
                      raft_coalesce_ms=raft_coalesce_ms)
    if txn_protocol is not None:
        cluster.txn_protocol = resolve_protocol(txn_protocol)
    for region in regions:
        for i in range(nodes_per_region):
            zone = f"{region}-{chr(ord('a') + (i % zones_per_region))}"
            cluster.add_node(Locality(region=region, zone=zone))
    return cluster
