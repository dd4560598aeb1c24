"""Ranges, replicas, closed timestamps, and request routing."""

from .closedts import (
    ClosedTimestampPolicy,
    DEFAULT_CLOSED_TS_LAG_MS,
    LagPolicy,
    LeadPolicy,
)
from .commands import (
    BatchCommand,
    PutIntentCommand,
    ResolveIntentCommand,
    SetTxnRecordCommand,
    TxnStatus,
)
from .distsender import DistSender, ReadRouting
from .keyspace import (
    Keyspace,
    RangeDescriptor,
    RangeLoad,
    TableSpan,
    encode_key,
)
from .range import Range
from .replica import Replica

__all__ = [
    "Keyspace",
    "RangeDescriptor",
    "RangeLoad",
    "TableSpan",
    "encode_key",
    "ClosedTimestampPolicy",
    "DEFAULT_CLOSED_TS_LAG_MS",
    "LagPolicy",
    "LeadPolicy",
    "BatchCommand",
    "PutIntentCommand",
    "ResolveIntentCommand",
    "SetTxnRecordCommand",
    "TxnStatus",
    "DistSender",
    "ReadRouting",
    "Range",
    "Replica",
]
