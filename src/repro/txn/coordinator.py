"""Transaction coordination (paper §5, §6).

The coordinator lives on the client's gateway node.  It owns the parts
of transaction processing that every protocol shares — txn-id
allocation, the retry loop with seeded jittered backoff, retry-budget
and deadline accounting, stats, and history recording — and delegates
*how one attempt executes* to a pluggable
:class:`~repro.txn.protocol.TxnProtocol` backend:

* :class:`~repro.txn.crdb.CrdbProtocol` (the default) — the paper's
  pipeline: write intents, uncertainty restarts and read refreshes,
  parallel/one-phase commits, lock-table conflicts, commit-wait;
* :class:`~repro.txn.epoch.EpochOccProtocol` — gateway-local optimistic
  read/write sets, epoch-batched commit behind a Raft-replicated
  per-epoch ordering decision, validation-based aborts, epoch-wait.

A coordinator runs its cluster's one backend.
"""

from __future__ import annotations

import random
from typing import Callable, Generator, Optional

from ..errors import (
    AmbiguousCommitError,
    ConfigurationError,
    DeadlineExceededError,
    RangeUnavailableError,
    TransactionAbortedError,
    TransactionRetryError,
    TransactionValidationError,
)
from ..sim.network import NetworkUnavailableError
from ..sim.retry import ExponentialBackoff
from ..kv.commands import TxnStatus
from ..kv.distsender import DistSender
from ..obs import MetricsRegistry
from .crdb import Transaction
from .protocol import TxnProtocol, resolve_protocol

__all__ = ["TransactionCoordinator", "Transaction", "TxnStats"]


class TxnStats:
    """The coordinator's ``txn.*`` instruments.

    ``stats.c_<field>`` is the counter itself (``h_commit_wait_ms``: the
    commit-wait histogram) for the transaction code to bump inline,
    bound to the registry on first touch — so a CRDB-only run exports no
    epoch-OCC row — and found in the instance dict from then on.
    ``stats.<field>`` reads its value as an int (``*_ms_total``: float).
    The leaseholders count the pipeline's stalls and lost writes into
    the same registry.
    """

    _FIELDS = ("begun", "committed", "aborted_retries",
               "uncertainty_restarts", "refreshes", "refresh_failures",
               "commit_waits", "commit_wait_ms_total", "ambiguous_commits",
               "one_phase_commits", "one_phase_fallbacks",
               "pipelined_writes", "pipeline_stalls", "async_write_failures",
               "validation_aborts", "epoch_waits", "epoch_wait_ms_total")

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = (registry if registry is not None
                         else MetricsRegistry())

    def __getattr__(self, name):
        # Only reached for a name the instance dict does not hold yet.
        if name in TxnStats._FIELDS:
            value = getattr(self, "c_" + name).value
            return float(value) if name.endswith("_ms_total") else int(value)
        if name.startswith("c_") and name[2:] in TxnStats._FIELDS:
            handle = self.registry.counter("txn." + name[2:])
        elif name == "h_commit_wait_ms":
            handle = self.registry.histogram("txn.commit_wait_ms")
        else:
            raise AttributeError(name)
        setattr(self, name, handle)
        return handle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{f}={getattr(self, f)}"
                          for f in TxnStats._FIELDS)
        return f"TxnStats({inner})"


class TransactionCoordinator:
    """Factory/runner for transactions on a cluster."""

    #: Spanner-style commit wait (§6.2 ablation): hold locks through
    #: commit wait instead of releasing them concurrently with it.  Off
    #: by default; ``run_commit_wait_ablation`` switches it on for one
    #: instance.
    spanner_style_commit_wait = False
    #: A CRDB commit proves every pipelined write before it commits.
    #: Off only in the verify harness's ``pipeline-unproven`` ablation,
    #: for one instance.
    prove_writes = True
    #: A transaction leaves the registry only once its last intent is
    #: resolved.  Off only in the verify harness's
    #: ``forget-before-resolve`` ablation, for one instance: a CRDB
    #: transaction is then forgotten at its client ack, and a pusher
    #: takes its unresolved intents for strays and aborts them.
    resolve_before_forget = True

    def __init__(self, cluster, protocol=None):
        # ``protocol`` may only name the cluster's backend, or choose it
        # on a cluster that has none yet (None: CRDB) — the commit
        # micro-benchmark names epoch-OCC on a default cluster.
        if cluster.txn_protocol is None:
            cluster.txn_protocol = resolve_protocol(protocol)
        elif protocol not in (None, cluster.txn_protocol.name):
            raise ConfigurationError(
                f"cluster runs {cluster.txn_protocol.name!r}, "
                f"not {protocol!r}")
        self.cluster = cluster
        self.sim = cluster.sim
        self.distsender = DistSender(cluster)
        self.stats = TxnStats(cluster.sim.obs.registry)
        self.tracer = cluster.sim.obs.tracer
        #: The cluster's transaction backend, shared by its coordinators.
        self.protocol: TxnProtocol = cluster.txn_protocol
        #: Optional :class:`repro.verify.HistoryRecorder`; when set,
        #: every read/write/outcome is captured for anomaly checking.
        self.recorder = None
        # Shared with the DistSender's retry helper in spirit: seeded
        # jittered backoff so contended retries cannot livelock in
        # lockstep (chaos runs livelocked with the old fixed backoff).
        self._retry_rng = random.Random((cluster.seed << 8) ^ 0x7C0)

    def note_uncertainty_restart(self, value_ts) -> None:
        """Count an uncertainty restart, attributing its cause when the
        clock-safety subsystem is active: a *synthetic* uncertain value
        is a future-time (GLOBAL-table) write doing its job, while a
        real timestamp inside the window means an actually-skewed writer
        clock — the distinction the clock nemesis experiments care
        about."""
        self.stats.c_uncertainty_restarts.value += 1
        if self.cluster.clock_monitor is not None:
            cause = ("future-time-write" if value_ts.synthetic
                     else "clock-skew")
            self.sim.obs.registry.counter(
                "txn.uncertainty_restart_cause", cause=cause).inc()

    def begin(self, gateway, parent_span=None,
              label: Optional[str] = None,
              deadline_ms: Optional[float] = None):
        # Ids come from the cluster: the txn registry, lock holders and
        # replicated commit records they key are all cluster-wide.
        txn = self.protocol.begin(self, gateway,
                                  self.cluster.allocate_txn_id(),
                                  parent_span=parent_span)
        txn.deadline_ms = deadline_ms
        self.stats.c_begun.value += 1
        # Registered so lock-table pushes can learn this transaction's
        # fate even if its intent resolution is lost to a failure; its
        # protocol forgets it once nothing is left to resolve.
        self.cluster.txn_registry[txn.txn_id] = txn
        if self.recorder is not None:
            self.recorder.on_begin(txn, gateway, label)
        return txn

    def forget(self, txn) -> None:
        """Take a finished ``txn`` out of the registry: its last intent
        is resolved (or it never laid one), so no pusher needs its
        status.  A pusher meeting one of its intents after this — a
        write that landed after the cleanup — takes it for a stray and
        aborts it."""
        self.cluster.txn_registry.pop(txn.txn_id, None)

    def run(self, gateway, txn_fn: Callable[[Transaction], Generator],
            max_attempts: int = 100, parent_span=None,
            label: Optional[str] = None,
            deadline_ms: Optional[float] = None,
            tenant: Optional[str] = None) -> Generator:
        """Run ``txn_fn`` with automatic retries; returns (result, commit_ts).

        ``txn_fn(txn)`` is a coroutine performing reads/writes on ``txn``;
        commit happens automatically after it returns.

        ``deadline_ms`` (absolute sim time) propagates into every data
        RPC; once it passes, the transaction fails fast with
        :class:`DeadlineExceededError` instead of retrying.  When
        admission control is installed, retries additionally draw on the
        ``tenant``'s retry budget and fail fast with
        ``RetryBudgetExhaustedError`` once it is spent.
        """
        last_error: Optional[Exception] = None
        tracer = self.tracer
        admission = self.cluster.admission
        budget = (admission.retry_budget(tenant or label or "default")
                  if admission is not None else None)
        # Seeded jittered backoff (capped: long sleeps only prolong
        # contention windows); RPC failures back off longer to leave
        # room for lease failover.
        contention_backoff = ExponentialBackoff(
            rng=self._retry_rng, base_ms=0.5, max_ms=20.0)
        network_backoff = ExponentialBackoff(
            rng=self._retry_rng, base_ms=25.0, max_ms=500.0)
        for attempt in range(max_attempts):
            if deadline_ms is not None and self.sim.now >= deadline_ms:
                raise DeadlineExceededError("txn", deadline_ms, self.sim.now)
            txn = self.begin(gateway, parent_span=parent_span, label=label,
                             deadline_ms=deadline_ms)
            try:
                result = yield from txn_fn(txn)
                commit_ts = yield from txn.commit()
                self.stats.c_committed.value += 1
                if budget is not None:
                    budget.on_success()
                tracer.finish(txn.span, "status", txn.status)
                return result, commit_ts
            except AmbiguousCommitError:
                # The commit may have applied: retrying could double-
                # apply, rolling back could overwrite a committed
                # record.  Surface as-is.
                tracer.tag(txn.span, "ambiguous", True)
                tracer.finish(txn.span, "status", txn.status)
                raise
            except (TransactionRetryError, TransactionAbortedError,
                    NetworkUnavailableError) as err:
                # Retry: serializability restarts, aborts, and RPC
                # failures (a dead leaseholder may have failed over by
                # the next attempt — CRDB's DistSender retries these).
                last_error = err
                self.stats.c_aborted_retries.value += 1
                if isinstance(err, TransactionValidationError):
                    txn.abort_reason = "validation"
                elif txn.abort_reason is None:
                    txn.abort_reason = "retry"
                yield from self.rollback_best_effort(txn)
                tracer.tag(txn.span, "retried", True)
                tracer.tag(txn.span, "error", type(err).__name__)
                tracer.finish(txn.span, "status", txn.status)
                if isinstance(err, NetworkUnavailableError):
                    delay = network_backoff.next_delay()
                else:
                    delay = contention_backoff.next_delay()
                if (deadline_ms is not None
                        and self.sim.now + delay >= deadline_ms):
                    raise DeadlineExceededError("txn", deadline_ms,
                                                self.sim.now)
                if budget is not None:
                    # Spend before sleeping: an exhausted budget must
                    # fail fast, not after one more backoff.
                    budget.check(attempt + 1)
                yield self.sim.sleep(delay)
            except Exception as err:
                # Non-retryable failure (e.g. a uniqueness violation):
                # clean up intents, then surface to the caller.
                if txn.abort_reason is None:
                    txn.abort_reason = "fatal"
                yield from self.rollback_best_effort(txn)
                tracer.tag(txn.span, "error", type(err).__name__)
                tracer.finish(txn.span, "status", txn.status)
                raise
        raise TransactionRetryError(
            f"transaction gave up after {max_attempts} attempts: {last_error}")

    def rollback_best_effort(self, txn) -> Generator:
        """Roll back, tolerating unreachable ranges (dead leaseholders).
        A rollback that reached every range forgets the transaction; one
        that did not leaves it registered as ABORTED, so waiter pushes
        abort the intents it abandoned."""
        try:
            yield from txn.rollback()
        except (NetworkUnavailableError, RangeUnavailableError):
            txn.status = TxnStatus.ABORTED
