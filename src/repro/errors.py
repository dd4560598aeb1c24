"""Shared error taxonomy for the database layers.

These mirror the error classes CockroachDB uses internally to drive
transaction retries, intent resolution, and uncertainty restarts.
"""

from __future__ import annotations

__all__ = [
    "DatabaseError",
    "ConfigurationError",
    "WriteIntentError",
    "ReadWithinUncertaintyIntervalError",
    "WriteTooOldError",
    "ConditionFailedError",
    "TransactionRetryError",
    "TransactionValidationError",
    "TransactionAbortedError",
    "AmbiguousCommitError",
    "RangeUnavailableError",
    "RangeKeyMismatchError",
    "FollowerReadNotAvailableError",
    "StaleReadBoundError",
    "UniqueViolationError",
    "ForeignKeyViolationError",
    "SchemaError",
    "SqlSyntaxError",
    "ClockError",
    "ClockOutlierRejectedError",
    "ClockFencedError",
    "OverloadError",
    "AdmissionRejectedError",
    "RetryBudgetExhaustedError",
    "DeadlineExceededError",
]


class DatabaseError(Exception):
    """Base class for all database-level errors."""


class ConfigurationError(DatabaseError):
    """Invalid cluster, zone-config, or multi-region configuration."""


class WriteIntentError(DatabaseError):
    """An operation ran into another transaction's unresolved intent."""

    def __init__(self, key, txn_id, intent_ts):
        super().__init__(f"conflicting intent on {key!r} by txn {txn_id}")
        self.key = key
        self.txn_id = txn_id
        self.intent_ts = intent_ts


class ReadWithinUncertaintyIntervalError(DatabaseError):
    """A read observed a value above its timestamp but inside its
    uncertainty interval; the transaction must refresh to the value's
    timestamp (paper §6.1)."""

    def __init__(self, key, value_ts, read_ts):
        super().__init__(
            f"uncertain value on {key!r} at {value_ts} (read at {read_ts})")
        self.key = key
        self.value_ts = value_ts
        self.read_ts = read_ts


class WriteTooOldError(DatabaseError):
    """A write attempted below an existing committed value; the write
    timestamp must advance."""

    def __init__(self, key, existing_ts, attempted_ts):
        super().__init__(
            f"write too old on {key!r}: existing {existing_ts} >= {attempted_ts}")
        self.key = key
        self.existing_ts = existing_ts
        self.attempted_ts = attempted_ts


class ConditionFailedError(DatabaseError):
    """A conditional put (``expect_absent``) found a live value on the
    key.  Application-level and final: the leaseholder answered, nothing
    was latched or written, and retrying would find the same value
    (CRDB's ``ConditionFailedError``; SQL turns it into a uniqueness
    violation)."""

    def __init__(self, key, existing):
        super().__init__(f"condition failed on {key!r}: key exists")
        self.key = key
        self.existing = existing


class TransactionRetryError(DatabaseError):
    """The transaction must restart (e.g. a failed read refresh)."""

    def __init__(self, reason: str, retry_ts=None):
        super().__init__(reason)
        self.retry_ts = retry_ts


class TransactionValidationError(TransactionRetryError):
    """An optimistic transaction failed commit-time validation: a key in
    its read set changed between the read and the (epoch-ordered) commit
    attempt.  Retryable — the restart re-reads current state — but kept
    distinct from other restarts so abort-rate comparisons between
    protocols can separate validation conflicts from e.g. refresh
    failures or pushed locks."""

    def __init__(self, txn_id: int, key=None, observed_ts=None,
                 current_ts=None):
        detail = f" on {key!r}" if key is not None else ""
        super().__init__(
            f"txn {txn_id}: optimistic validation failed{detail} "
            f"(read {observed_ts}, now {current_ts})")
        self.txn_id = txn_id
        self.key = key
        self.observed_ts = observed_ts
        self.current_ts = current_ts


class TransactionAbortedError(DatabaseError):
    """The transaction was aborted (pushed or explicitly)."""


class AmbiguousCommitError(DatabaseError):
    """The commit RPC failed after the commit may have applied.

    Raised when the transaction-record write is lost to a network
    failure and the coordinator cannot prove either outcome.  Clients
    must treat the transaction as *indeterminate* — retrying it blindly
    could double-apply its effects (CRDB's ``AmbiguousResultError``).
    """

    def __init__(self, txn_id: int, commit_ts=None):
        super().__init__(
            f"txn {txn_id}: commit outcome unknown (RPC failed after "
            f"the commit may have replicated)")
        self.txn_id = txn_id
        self.commit_ts = commit_ts


class RangeUnavailableError(DatabaseError):
    """The range cannot reach quorum (region/zone failure)."""


class RangeKeyMismatchError(TransactionRetryError):
    """The range contacted no longer owns the key (its descriptor span
    moved out from under the request — a split or merge landed between
    routing and serving).  Subclasses :class:`TransactionRetryError` so
    coordinators retry; the DistSender additionally invalidates its
    span-keyed descriptor cache and re-routes without consuming a
    transaction restart (CRDB's ``RangeKeyMismatchError``)."""

    def __init__(self, range_id: int, key, generation: int):
        super().__init__(
            f"r{range_id}: key {key!r} outside range bounds "
            f"(descriptor generation {generation})")
        self.range_id = range_id
        self.key = key
        self.generation = generation


class FollowerReadNotAvailableError(DatabaseError):
    """The follower's closed timestamp has not reached the read timestamp."""

    def __init__(self, range_id: int, read_ts, closed_ts):
        super().__init__(
            f"r{range_id}: follower read at {read_ts} above closed {closed_ts}")
        self.range_id = range_id
        self.read_ts = read_ts
        self.closed_ts = closed_ts


class StaleReadBoundError(DatabaseError):
    """A bounded-staleness read could not be served within its bound."""


class UniqueViolationError(DatabaseError):
    """A uniqueness constraint would be violated."""

    def __init__(self, table: str, column, value):
        super().__init__(
            f"duplicate key value violates unique constraint on "
            f"{table}.{column}: {value!r}")
        self.table = table
        self.column = column
        self.value = value


class ForeignKeyViolationError(DatabaseError):
    """A referenced parent row does not exist."""

    def __init__(self, table: str, column: str, value):
        super().__init__(
            f"insert or update on {table}.{column} violates foreign key: "
            f"no parent row {value!r}")
        self.table = table
        self.column = column
        self.value = value


class SchemaError(DatabaseError):
    """Catalog-level misuse (unknown table, bad locality change, ...)."""


class SqlSyntaxError(DatabaseError):
    """The SQL text could not be parsed."""


class ClockError(DatabaseError):
    """Base class for clock-safety violations.

    Raised by the clock-sync monitor (``repro.cluster.clocksync``) when
    a node's clock is observed outside the ``max_clock_offset`` contract
    the uncertainty/commit-wait machinery depends on.  Serving through a
    violated contract risks silently wrong answers, so these errors fail
    the request instead (CRDB crashes the offending node).
    """


class ClockOutlierRejectedError(ClockError, TransactionRetryError):
    """A replica refused a request timestamp too far ahead of its own
    clock: the sender's clock must be beyond the tolerated bound, and
    accepting the write would let it escape commit-wait (CRDB's
    "remote wall time is too far ahead" check).  Subclasses
    :class:`TransactionRetryError` so coordinators retry — pointless on
    a still-broken clock, after which the transaction surfaces as
    aborted rather than as a wrong answer.
    """

    def __init__(self, node_id: int, request_physical: float,
                 local_physical: float):
        TransactionRetryError.__init__(
            self,
            f"node {node_id} rejected request ts {request_physical:.1f}ms: "
            f"{request_physical - local_physical:.1f}ms ahead of local "
            f"clock (beyond max_clock_offset)")
        self.node_id = node_id
        self.request_physical = request_physical
        self.local_physical = local_physical


class ClockFencedError(ClockError, RangeUnavailableError):
    """The node has self-fenced: its own measured clock offset exceeded
    the tolerated bound, so it stops serving reads and writes entirely
    rather than serve through a broken uncertainty contract."""

    def __init__(self, node_id: int):
        RangeUnavailableError.__init__(
            self, f"node {node_id} is clock-fenced")
        self.node_id = node_id


class OverloadError(DatabaseError):
    """Base class for load-shedding errors raised by admission control.

    Work rejected with an ``OverloadError`` was *never admitted* (or was
    shed before doing further damage): the client should back off and
    reduce its offered load rather than retry immediately (CRDB's
    admission-control rejections / gRPC ``RESOURCE_EXHAUSTED``).
    """


class AdmissionRejectedError(OverloadError):
    """The admission queue rejected the request outright (queue full or
    the token bucket cannot cover it before the deadline)."""

    def __init__(self, queue: str, reason: str):
        super().__init__(f"admission rejected by {queue}: {reason}")
        self.queue = queue
        self.reason = reason


class RetryBudgetExhaustedError(OverloadError):
    """The per-tenant retry budget is spent; retrying now would only
    amplify the overload (metastable-failure protection)."""

    def __init__(self, tenant: str, attempts: int):
        super().__init__(
            f"retry budget exhausted for tenant {tenant!r} "
            f"after {attempts} attempt(s)")
        self.tenant = tenant
        self.attempts = attempts


class DeadlineExceededError(DatabaseError):
    """The operation's deadline passed before it could complete.

    Raised *before* issuing (or retrying) work that cannot finish in
    time, so expired requests fail fast instead of burning backoff and
    server capacity past the point anyone is waiting for the answer.
    Not retryable: the caller's deadline has passed by construction.
    """

    def __init__(self, op: str, deadline_ms: float, now_ms: float):
        super().__init__(
            f"deadline exceeded for {op}: deadline {deadline_ms:.1f}ms, "
            f"now {now_ms:.1f}ms")
        self.op = op
        self.deadline_ms = deadline_ms
        self.now_ms = now_ms
