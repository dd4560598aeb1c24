"""Replicated commands and transaction records.

Commands are the payloads of Raft log entries.  Applying the same
command sequence on every replica keeps the MVCC stores identical, which
is what makes follower reads possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..sim.clock import Timestamp

__all__ = [
    "BatchCommand",
    "EpochOrderCommand",
    "PutIntentCommand",
    "ResolveIntentCommand",
    "SetTxnRecordCommand",
    "TxnStatus",
]


class TxnStatus:
    PENDING = "pending"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass(frozen=True)
class PutIntentCommand:
    """Lay a provisional (intent) version of ``key``."""

    key: Any
    ts: Timestamp
    value: Any
    txn_id: int
    anchor_node_id: int


@dataclass(frozen=True)
class ResolveIntentCommand:
    """Finalize an intent: commit at ``commit_ts`` or abort if ``None``."""

    key: Any
    txn_id: int
    commit_ts: Optional[Timestamp]


@dataclass(frozen=True)
class SetTxnRecordCommand:
    """Create or update the transaction record on the anchor range —
    the authoritative transaction state: applied, the command *is* the
    record each replica keeps (no copy per replica).

    Key-less, the record stays on the range that proposed it.  The
    COMMITTED marker inside a one-phase commit's :class:`BatchCommand`
    names the written ``key`` instead, so the record applies wherever
    that key's intent does — a split cannot part the guard against a
    second application from the data it guards.
    """

    txn_id: int
    status: str
    commit_ts: Optional[Timestamp]
    key: Any = None


@dataclass(frozen=True)
class EpochOrderCommand:
    """Durably replicate one epoch's commit order (epoch-OCC backend).

    The epoch service decides a total order over the epoch's
    transactions and replicates that decision through Raft *before*
    validating/applying any of them, so the order survives coordinator
    failure.  Deliberately key-less: the decision is not tied to any
    user key, so splits must never re-route its application.
    """

    epoch: int
    txn_ids: tuple


@dataclass(frozen=True)
class BatchCommand:
    """Several commands replicated as one Raft entry (one proposal, one
    quorum round for a whole per-range request batch).

    ``Range._apply`` applies the members in order, each on the range
    that owns its key *now* — a split landing while the entry is in the
    pipeline forwards the moved members one by one.  Deliberately
    key-less itself, so the entry as a whole is never re-routed.
    """

    commands: tuple
