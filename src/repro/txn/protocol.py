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

The coordinator registers a handle in ``begin``; the handle calls
``coordinator.forget(handle)`` once its last intent is known resolved
(or it laid none), and never before — a pusher takes a holder the
registry does not know for finished and resolved, and aborts its
intent.  An ambiguous commit, or a failed cleanup, stays registered.

Failures raised out of the handle follow the shared error taxonomy:
anything retryable must be a :class:`~repro.errors.TransactionRetryError`
(validation conflicts use the
:class:`~repro.errors.TransactionValidationError` subclass so abort
accounting can tell them apart) or
:class:`~repro.errors.TransactionAbortedError`.

A cluster runs one protocol: ``standard_cluster(txn_protocol=...)``
names it, and every coordinator on the cluster shares that instance.
"""

from __future__ import annotations

from ..errors import ConfigurationError

__all__ = ["TxnProtocol", "PROTOCOL_NAMES", "resolve_protocol"]

#: The names :func:`resolve_protocol` accepts.
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


def resolve_protocol(name=None) -> TxnProtocol:
    """A new instance of the backend called ``name`` (None: CRDB).
    Imports lazily so the backends stay import-cycle-free."""
    if name in (None, "crdb"):
        from .crdb import CrdbProtocol
        return CrdbProtocol()
    if name == "epoch-occ":
        from .epoch import EpochOccProtocol
        return EpochOccProtocol()
    raise ConfigurationError(
        f"unknown transaction protocol {name!r} "
        f"(expected one of {', '.join(PROTOCOL_NAMES)})")
