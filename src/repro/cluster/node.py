"""A database node: an HLC, a locality, and the stores living on it."""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from ..sim.clock import HLC, ClockModel
from ..sim.core import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..kv.replica import Replica

__all__ = ["Node"]


class Node:
    """One simulated ``cockroach`` process.

    Nodes host :class:`~repro.kv.replica.Replica` objects (one per Range
    the node participates in) and act as SQL gateways for clients in
    their region.
    """

    def __init__(self, sim: Simulator, node_id: int, locality,
                 skew: Optional[ClockModel] = None):
        self.sim = sim
        self.node_id = node_id
        self.locality = locality
        self.clock = HLC(sim, node_id, skew)
        #: range_id -> Replica hosted on this node.
        self.replicas: Dict[int, "Replica"] = {}
        self.alive = True
        #: Set by the clock-safety monitor when this node detects its
        #: own clock is beyond the tolerated bound: the node stops
        #: serving and takes itself down rather than serve wrong answers.
        self.fenced = False

    def add_replica(self, replica: "Replica") -> None:
        self.replicas[replica.range_id] = replica

    def remove_replica(self, range_id: int) -> None:
        self.replicas.pop(range_id, None)

    def __repr__(self) -> str:
        return f"Node({self.node_id}, {self.locality})"
