"""The coordinator/KV protocol boundary.

The paper's lease-based pipeline — intents, parallel commits,
commit-wait — is one point in the geo-replication design space
(ROADMAP item 3).  A :class:`TxnProtocol` is a pluggable transaction
backend: the :class:`~repro.txn.coordinator.TransactionCoordinator`
owns retries, txn-id allocation, history recording and stats, and
delegates *how one attempt executes* to the protocol, which returns a
transaction handle from :meth:`TxnProtocol.begin`.

A transaction handle must duck-type the CRDB
:class:`~repro.txn.crdb.Transaction` surface the SQL layer and the
workload generators drive:

* attributes: ``txn_id``, ``gateway``, ``coordinator``, ``span`` (the
  attempt's int span id from ``tracer.start``, 0 if untraced),
  ``status`` (a :class:`~repro.kv.commands.TxnStatus` value — the
  cluster txn registry and lock-table pushes consult it),
  ``commit_ts``, ``read_ts``, ``deadline_ms``, ``abort_reason``;
* coroutines: ``read``, ``read_batch``, ``locking_read``, ``write``,
  ``write_batch``, ``delete``, ``commit``, ``rollback``.

Failures raised out of the handle follow the shared error taxonomy:
anything retryable must be a :class:`~repro.errors.TransactionRetryError`
(validation conflicts use the
:class:`~repro.errors.TransactionValidationError` subclass so abort
accounting can tell them apart) or
:class:`~repro.errors.TransactionAbortedError`.

Protocols are selectable per cluster (``Cluster(txn_protocol=...)`` /
``standard_cluster(txn_protocol=...)``) or per coordinator
(``TransactionCoordinator(protocol=...)``); each accepts a name, a
:class:`TxnProtocol` instance, or a protocol class.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ConfigurationError

__all__ = ["TxnProtocol", "PROTOCOL_NAMES", "resolve_protocol"]

#: Canonical names accepted by :func:`resolve_protocol` (aliases are
#: normalized: underscores become dashes, matching is case-insensitive).
PROTOCOL_NAMES = ("crdb", "epoch-occ")


class TxnProtocol:
    """Abstract transaction backend: one attempt's execution strategy."""

    #: Canonical protocol name (used in metrics labels and CLIs).
    name = "abstract"
    #: Which latency the protocol trades against clock uncertainty:
    #: ``"commit-wait"`` (CRDB/Spanner) or ``"epoch-wait"`` (epoch OCC).
    wait_kind = ""

    def begin(self, coordinator, gateway, txn_id: int, parent_span=None):
        """Create one transaction attempt handle pinned to ``gateway``."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


def resolve_protocol(spec=None) -> TxnProtocol:
    """Resolve ``spec`` to a :class:`TxnProtocol` instance.

    Accepts ``None`` (the CRDB default), a protocol name from
    :data:`PROTOCOL_NAMES`, a :class:`TxnProtocol` instance (returned
    as-is), or a protocol class (instantiated).
    Imports lazily so the backends stay import-cycle-free.
    """
    if isinstance(spec, TxnProtocol):
        return spec
    if isinstance(spec, type) and issubclass(spec, TxnProtocol):
        return spec()
    if spec is None:
        spec = "crdb"
    if isinstance(spec, str):
        name = spec.strip().lower().replace("_", "-")
        if name in ("", "crdb", "default"):
            from .crdb import CrdbProtocol
            return CrdbProtocol()
        if name in ("epoch-occ", "epoch", "occ"):
            from .epoch import EpochOccProtocol
            return EpochOccProtocol()
    raise ConfigurationError(
        f"unknown transaction protocol {spec!r} "
        f"(expected one of {', '.join(PROTOCOL_NAMES)})")
