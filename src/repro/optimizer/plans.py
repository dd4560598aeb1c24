"""Query plan nodes.

Plans describe *where* a point query will look for rows:

* :class:`PartitionPointRead` — the target partition is known (the
  table is unpartitioned, the WHERE clause pins the region column, or
  the region is computable from bound columns);
* :class:`LocalityOptimizedRead` — Locality Optimized Search (§4.2):
  probe the gateway-local partition first and fan out to the remaining
  partitions only on a miss (legal because the lookup key is unique, so
  a local hit proves there is nothing to find elsewhere);
* :class:`FanoutPointRead` — probe every partition in parallel (the
  *Unoptimized* variant in Fig 4a);
* :class:`FullScan` — scan all partitions and filter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

__all__ = [
    "PartitionPointRead",
    "LocalityOptimizedRead",
    "FanoutPointRead",
    "MultiPointRead",
    "LocalityOptimizedMultiRead",
    "FanoutMultiRead",
    "FullScan",
    "UniquenessCheck",
]


@dataclass
class PartitionPointRead:
    index: Any
    partition: str
    key: Tuple

    def explain(self) -> str:
        where = self.partition or "default"
        return f"point-read {self.index.name}@{where} key={self.key}"


@dataclass
class LocalityOptimizedRead:
    index: Any
    key: Tuple
    local_partition: str
    remote_partitions: List[str]
    max_rows: int = 1

    def explain(self) -> str:
        return (f"locality-optimized-search {self.index.name} "
                f"local={self.local_partition} "
                f"remote={','.join(self.remote_partitions)} key={self.key}")


@dataclass
class FanoutPointRead:
    index: Any
    key: Tuple
    partitions: List[str]

    def explain(self) -> str:
        return (f"fan-out-read {self.index.name} "
                f"partitions={','.join(p or 'default' for p in self.partitions)} "
                f"key={self.key}")


@dataclass
class FullScan:
    index: Any
    partitions: List[str]
    predicate: Optional[Any] = None

    def explain(self) -> str:
        return (f"full-scan {self.index.name} "
                f"partitions={','.join(p or 'default' for p in self.partitions)}")


@dataclass
class MultiPointRead:
    """Several point lookups in one known partition (IN-list with the
    region bound or an unpartitioned table)."""

    index: Any
    partition: str
    keys: List[Tuple]

    def explain(self) -> str:
        where = self.partition or "default"
        return (f"multi-point-read {self.index.name}@{where} "
                f"{len(self.keys)} keys")


@dataclass
class LocalityOptimizedMultiRead:
    """§4.2's generalization of LOS to IN-lists: the result cardinality
    is bounded by the number of IN values, so probe every key in the
    local partition first and fan out only for the misses."""

    index: Any
    keys: List[Tuple]
    local_partition: str
    remote_partitions: List[str]

    def explain(self) -> str:
        return (f"locality-optimized-search {self.index.name} "
                f"{len(self.keys)} keys local={self.local_partition} "
                f"remote={','.join(self.remote_partitions)}")


@dataclass
class FanoutMultiRead:
    """IN-list lookup probing every partition for every key."""

    index: Any
    keys: List[Tuple]
    partitions: List[str]

    def explain(self) -> str:
        return (f"fan-out-read {self.index.name} {len(self.keys)} keys "
                f"partitions={','.join(p or 'default' for p in self.partitions)}")


@dataclass
class UniquenessCheck:
    """A post-write uniqueness check (§4.1): point lookups on ``index``
    for ``key`` in every listed partition, expecting no row other than
    ``allow_pk`` (for UPDATEs of the same row)."""

    index: Any
    key: Tuple
    partitions: List[str]
    constraint: Tuple[str, ...]
    reason: str = ""
    allow_pk: Optional[Tuple] = None

    def explain(self) -> str:
        return (f"uniqueness-check {self.index.name} cols={self.constraint} "
                f"partitions={','.join(p or 'default' for p in self.partitions)}"
                f" ({self.reason})")
