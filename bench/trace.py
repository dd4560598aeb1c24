"""Shim tracing: spans at layer boundaries, recorded from outside the program.

``SHIMS`` is the one table of layer entry points.  :meth:`Tracer.install`
replaces each with a timing shim (class attributes and, for functions other
modules imported by name, those modules' globals) and
:meth:`Tracer.restore` puts the originals back.  It must be installed
before the cluster is built: a bound method cached earlier would bypass its
shim, which is what the per-workload ``expects`` check catches.

A plain function is timed with one ``perf_counter_ns`` pair.  A generator
function gets a trampoline that times every resume, so its span's *busy*
time is the host time its own frames (and whatever they call) ran, not the
simulated time it spent suspended.  Open frames form a stack: a span's
parent is the frame below it, and its *self* time is its busy time minus
its child frames' busy time.  Spans carry host start/end, busy and self ns,
sim start/end, parent, client-op id and the exception type if one escaped.
They stay in memory as parallel columns and are written out at the end.

Nothing in ``repro`` is read except ``Simulator.now`` and (by the driver)
``Simulator.events_processed``; every count comes from the shims.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["SHIMS", "Tracer", "ledger"]

CALL, GEN, FUTURE, ROOT = "call", "gen", "future", "root"

#: (layer, "module:Owner.attr", kind).  ``future`` is a call whose result
#: is a Future: the span's sim end is when that future completes.  A
#: function listed under several owners was imported there by name.
SHIMS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.core", "repro.sim.core:Simulator.run", ROOT),
    ("sim.core", "repro.sim.core:Simulator.run_until_future", ROOT),
    ("sim.network", "repro.sim.network:Network.send", CALL),
    ("sim.network", "repro.sim.network:Network.call", CALL),
    ("sim.network", "repro.sim.network:Network._deliver_request", CALL),
    ("sim.network", "repro.sim.network:Network._send_reply", CALL),
    ("sim.network", "repro.sim.network:Network._drop", CALL),
    ("raft", "repro.raft.group:RaftGroup.propose", FUTURE),
    ("raft", "repro.raft.group:RaftGroup._deliver_append", CALL),
    ("raft", "repro.raft.group:RaftGroup._send_ack", CALL),
    ("raft", "repro.raft.group:RaftGroup._on_ack", CALL),
    ("raft", "repro.raft.group:RaftGroup._flush_outbox", CALL),
    ("raft", "repro.raft.group:RaftGroup._deliver_batch", CALL),
    ("raft", "repro.raft.group:RaftGroup._send_ack_batch", CALL),
    ("raft", "repro.raft.group:RaftGroup._deliver_acks", CALL),
    ("raft", "repro.raft.group:RaftGroup._learn_commit", CALL),
    ("raft", "repro.raft.group:RaftGroup._maybe_timeout", CALL),
    ("raft", "repro.raft.group:RaftGroup.broadcast_closed_ts", CALL),
    ("raft", "repro.raft.group:RaftGroup._deliver_closed_ts", CALL),
    ("storage.mvcc", "repro.storage.mvcc:MVCCStore.get", CALL),
    ("storage.mvcc", "repro.storage.mvcc:MVCCStore.put_intent", CALL),
    ("storage.mvcc", "repro.storage.mvcc:MVCCStore.resolve_intent", CALL),
    ("storage.mvcc", "repro.storage.mvcc:MVCCStore.put_committed", CALL),
    ("storage.locktable", "repro.storage.locktable:LockTable.wait_for",
     FUTURE),
    ("storage.locktable", "repro.storage.locktable:LockTable.release", CALL),
    ("kv.distsender", "repro.kv.distsender:DistSender.read", CALL),
    ("kv.distsender", "repro.kv.distsender:DistSender.write", CALL),
    ("kv.distsender", "repro.kv.distsender:DistSender.locking_read", CALL),
    ("kv.distsender", "repro.kv.distsender:DistSender.refresh", CALL),
    ("kv.distsender", "repro.kv.distsender:DistSender.write_txn_record",
     CALL),
    ("kv.distsender", "repro.kv.distsender:DistSender.epoch_order", CALL),
    ("kv.distsender", "repro.kv.distsender:DistSender.resolve_intent", CALL),
    ("kv.distsender", "repro.kv.distsender:DistSender.resolve_intents",
     CALL),
    ("kv.distsender", "repro.kv.distsender:DistSender.exact_staleness_read",
     CALL),
    ("kv.distsender",
     "repro.kv.distsender:DistSender.bounded_staleness_read", CALL),
    # Where an RPC attempt is given up on: the transport failed it (lost,
    # timed out, peer down or fenced) or the range had moved.  The retry
    # loop itself is a closure no shim can reach.
    ("kv.distsender", "repro.kv.circuit:CircuitBreaker.record_failure", CALL),
    ("kv.distsender", "repro.kv.distsender:DistSender._invalidate_token",
     CALL),
    ("kv.range", "repro.kv.range:Range.serve_read", GEN),
    ("kv.range", "repro.kv.range:Range.serve_write", GEN),
    ("kv.range", "repro.kv.range:Range.serve_locking_read", GEN),
    ("kv.range", "repro.kv.range:Range.serve_refresh", GEN),
    ("kv.range", "repro.kv.range:Range.serve_txn_record", GEN),
    ("kv.range", "repro.kv.range:Range.serve_epoch_order", GEN),
    ("kv.range", "repro.kv.range:Range.serve_resolve_intent", GEN),
    ("kv.range", "repro.kv.range:Range._apply", CALL),
    ("txn", "repro.txn.coordinator:TransactionCoordinator.run", GEN),
    ("txn", "repro.txn.coordinator:TransactionCoordinator.begin", CALL),
    ("txn", "repro.txn.crdb:Transaction.read", GEN),
    ("txn", "repro.txn.crdb:Transaction.read_batch", GEN),
    ("txn", "repro.txn.crdb:Transaction.locking_read", GEN),
    ("txn", "repro.txn.crdb:Transaction.write", GEN),
    ("txn", "repro.txn.crdb:Transaction.write_batch", GEN),
    ("txn", "repro.txn.crdb:Transaction.commit", GEN),
    ("txn", "repro.txn.crdb:Transaction._commit_wait_if_needed", GEN),
    ("txn.epoch", "repro.txn.epoch:EpochTransaction.read", GEN),
    ("txn.epoch", "repro.txn.epoch:EpochTransaction.read_batch", GEN),
    ("txn.epoch", "repro.txn.epoch:EpochTransaction.write", GEN),
    ("txn.epoch", "repro.txn.epoch:EpochTransaction.write_batch", GEN),
    ("txn.epoch", "repro.txn.epoch:EpochTransaction.commit", GEN),
    ("txn.epoch", "repro.txn.epoch:EpochService.submit", FUTURE),
    ("txn.epoch", "repro.txn.epoch:EpochService._seal", CALL),
    ("txn.epoch", "repro.txn.epoch:EpochService._drain", GEN),
    ("txn.epoch", "repro.txn.epoch:EpochService._ack_after_wait", GEN),
    ("sql.parser", "repro.sql.parser:parse", CALL),
    ("sql.parser", "repro.sql.session:parse", CALL),
    ("sql.executor", "repro.sql.executor:Executor.insert", GEN),
    ("sql.executor", "repro.sql.executor:Executor.select", GEN),
    ("sql.executor", "repro.sql.executor:Executor.update", GEN),
    ("sql.executor", "repro.sql.executor:Executor.delete", GEN),
    ("admission", "repro.admission.controller:AdmissionController.admit_co",
     GEN),
    ("admission",
     "repro.admission.controller:AdmissionController.store_work", GEN),
    ("verify", "repro.verify.checker:check", CALL),
    ("verify", "repro.verify.generator:check", CALL),
    ("verify", "repro.verify:check", CALL),
)

#: Spans of this shim start a client op when none is marked (workloads
#: whose client loops live in the program: openloop, verify_sweep).
_OP_ROOT = "TransactionCoordinator.run"
_AUTO_OP_BASE = 10 ** 12


def _resolve(target: str) -> Tuple[Any, str]:
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class Tracer:
    """Span store + shim installer.  One per traced repetition."""

    def __init__(self, clock: Callable[[], int] = perf_counter_ns):
        self._clock = clock
        #: Shim id -> short name ("Network.send", "parse") and layer.
        self.names: List[str] = []
        self.layers: List[str] = []
        # Span columns, one entry per span.
        self.shim: List[int] = []
        self.parent: List[int] = []
        self.op: List[int] = []
        self.t0: List[int] = []
        self.t1: List[int] = []
        self.busy: List[int] = []
        self.self_ns: List[int] = []
        self.sim0: List[float] = []
        self.sim1: List[float] = []
        #: 0 = ok, else 1 + index into ``error_names``.
        self.err: List[int] = []
        self.error_names: List[str] = []
        # Open frames (span id, start ns, child busy ns).
        self._stack: List[int] = []
        self._started: List[int] = []
        self._child: List[int] = []
        #: The simulator the innermost root shim last entered.
        self.sim: Any = None
        #: Client-op id set by :meth:`mark`, taken by the next top-level
        #: generator span.
        self._marked = -1
        self._auto_ops = 0
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- client-op ids ------------------------------------------------------

    def mark(self, op_id: int) -> None:
        """The benchmark's client loop is about to issue op ``op_id``."""
        self._marked = op_id

    # -- span bookkeeping ---------------------------------------------------

    def _sim_now(self) -> float:
        return self.sim.now if self.sim is not None else 0.0

    def open(self, shim_id: int) -> int:
        """Allocate a span under the current frame; returns its id."""
        if self._stack:
            parent = self._stack[-1]
            op = self.op[parent]
        else:
            parent, op = -1, -1
        now = self._sim_now()
        span = len(self.shim)
        self.shim.append(shim_id)
        self.parent.append(parent)
        self.op.append(op)
        self.busy.append(0)
        self.self_ns.append(0)
        self.sim0.append(now)
        self.sim1.append(now)
        self.err.append(0)
        started = self._clock()
        self.t0.append(started)
        self.t1.append(started)
        return span

    def enter(self, span: int) -> None:
        self._stack.append(span)
        self._child.append(0)
        self._started.append(self._clock())

    def exit(self, span: int) -> None:
        now = self._clock()
        elapsed = now - self._started.pop()
        children = self._child.pop()
        self._stack.pop()
        self.busy[span] += elapsed
        self.self_ns[span] += elapsed - children
        self.t1[span] = now
        if self._child:
            self._child[-1] += elapsed

    def fail(self, span: int, exc: BaseException) -> None:
        name = type(exc).__name__
        try:
            code = self.error_names.index(name)
        except ValueError:
            code = len(self.error_names)
            self.error_names.append(name)
        self.err[span] = code + 1

    def _take_op(self, span: int, shim_id: int) -> None:
        """Generator spans created straight from a client loop carry the
        marked op id; children inherit it through ``open``."""
        if self.op[span] >= 0:
            return
        if self._marked >= 0:
            self.op[span], self._marked = self._marked, -1
        elif self.names[shim_id] == _OP_ROOT:
            self.op[span] = _AUTO_OP_BASE + self._auto_ops
            self._auto_ops += 1

    # -- the shims ----------------------------------------------------------

    def _call_shim(self, fn: Callable, shim_id: int, kind: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if kind == ROOT:
                tracer.sim = args[0]
            span = tracer.open(shim_id)
            tracer.enter(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.exit(span)
                tracer.fail(span, exc)
                raise
            tracer.exit(span)
            if kind == FUTURE:
                result.add_callback(
                    lambda fut, span=span: tracer._future_done(span, fut))
            return result

        return shim

    def _future_done(self, span: int, fut) -> None:
        self.sim1[span] = self.sim.now
        if fut.error is not None:
            self.fail(span, fut.error)

    def _gen_shim(self, fn: Callable, shim_id: int) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            generator = fn(*args, **kwargs)
            if not inspect.isgenerator(generator):
                return generator
            span = tracer.open(shim_id)
            tracer._take_op(span, shim_id)
            return tracer.trampoline(generator, span)

        return shim

    def trampoline(self, generator, span: int):
        """Drive ``generator``, timing every resume; transparent to the
        caller (values, exceptions and the return value pass through)."""
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            self.enter(span)
            try:
                if error is None:
                    target = generator.send(value)
                else:
                    target = generator.throw(error)
            except StopIteration as stop:
                self.exit(span)
                self.sim1[span] = self._sim_now()
                return stop.value
            except BaseException as exc:
                self.exit(span)
                self.sim1[span] = self._sim_now()
                self.fail(span, exc)
                raise
            self.exit(span)
            try:
                value, error = (yield target), None
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - forwarded below
                value, error = None, exc

    # -- install / restore --------------------------------------------------

    def install(self, shims: Iterable[Tuple[str, str, str]] = SHIMS) -> None:
        for layer, target, kind in shims:
            owner, attr = _resolve(target)
            original = vars(owner)[attr]
            shim_id = len(self.names)
            self.names.append(target.rpartition(":")[2])
            self.layers.append(layer)
            if kind == GEN:
                shim = self._gen_shim(original, shim_id)
            else:
                shim = self._call_shim(original, shim_id, kind)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, shim)

    def restore(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def call_counts(self) -> Dict[str, int]:
        """Spans recorded per shim name (aliases of one name add up)."""
        counts = dict.fromkeys(self.names, 0)
        for shim_id in self.shim:
            counts[self.names[shim_id]] += 1
        return counts

    def dump(self, path) -> None:
        doc = {
            "shims": [{"name": n, "layer": layer}
                      for n, layer in zip(self.names, self.layers)],
            "errors": self.error_names,
            "columns": {
                "shim": self.shim, "parent": self.parent, "op": self.op,
                "host_start_ns": self.t0, "host_end_ns": self.t1,
                "busy_ns": self.busy, "self_ns": self.self_ns,
                "sim_start_ms": self.sim0, "sim_end_ms": self.sim1,
                "error": self.err,
            },
        }
        with open(path, "w") as handle:
            json.dump(doc, handle, separators=(",", ":"))


def ledger(tracer: Tracer, ops: int, since_ns: int,
           timed_ns: int) -> Dict[str, float]:
    """The span-derived per-layer metrics of one traced repetition.

    ``ops`` is the workload's recorded op count; the timed region began at
    host time ``since_ns`` (spans opened earlier belong to set-up and are
    left out) and took ``timed_ns``.  ``*_per_op`` divides by ``ops``.
    """
    names, layers = tracer.names, tracer.layers
    n_shims = len(names)
    calls = [0] * n_shims
    self_ns = [0] * n_shims
    sim_ms = [0.0] * n_shims
    errors: List[Dict[int, int]] = [{} for _ in range(n_shims)]
    raft_msgs = 0
    commit_ms: List[float] = []
    for span, shim_id in enumerate(tracer.shim):
        if tracer.t0[span] < since_ns:
            continue
        calls[shim_id] += 1
        self_ns[shim_id] += tracer.self_ns[span]
        sim_ms[shim_id] += tracer.sim1[span] - tracer.sim0[span]
        code = tracer.err[span]
        if code:
            errors[shim_id][code] = errors[shim_id].get(code, 0) + 1
        name = names[shim_id]
        if name in ("Network.send", "Network.call"):
            parent = tracer.parent[span]
            if parent >= 0 and layers[tracer.shim[parent]] == "raft":
                raft_msgs += 1
        elif name == "RaftGroup.propose" and not code:
            commit_ms.append(tracer.sim1[span] - tracer.sim0[span])

    def total(column: List, *wanted: str) -> float:
        return sum(column[i] for i in range(n_shims) if names[i] in wanted)

    def layer_us_per_op(layer: str) -> float:
        return sum(self_ns[i] for i in range(n_shims)
                   if layers[i] == layer) / 1000.0 / ops

    def failed(name: str, *error_types: str) -> int:
        codes = {tracer.error_names.index(e) + 1 for e in error_types
                 if e in tracer.error_names}
        return sum(count for i in range(n_shims) if names[i] == name
                   for code, count in errors[i].items()
                   if not error_types or code in codes)

    roots = ("Simulator.run", "Simulator.run_until_future")
    messages = total(calls, "Network.send", "Network.call")
    proposals = total(calls, "RaftGroup.propose")
    rpcs = total(calls, "Network.call")
    failed_rpcs = total(calls, "CircuitBreaker.record_failure",
                        "DistSender._invalidate_token")
    statements = total(calls, "Executor.insert", "Executor.select",
                       "Executor.update", "Executor.delete")
    kv_ops = total(calls, "DistSender.read", "DistSender.write",
                   "DistSender.locking_read")
    commits = (total(calls, "TransactionCoordinator.run")
               - failed("TransactionCoordinator.run"))
    admits = total(calls, "AdmissionController.admit_co")
    shed = (failed("AdmissionController.admit_co")
            + failed("AdmissionController.store_work"))
    attributed = sum(self_ns)
    return {
        "sim.core.self_share": total(self_ns, *roots) / timed_ns,
        "sim.network.msgs_per_op": messages / ops,
        "sim.network.self_us_per_op": layer_us_per_op("sim.network"),
        "sim.network.dropped_share":
            total(calls, "Network._drop") / max(messages, 1),
        "raft.proposals_per_op": proposals / ops,
        "raft.msgs_per_proposal": raft_msgs / max(proposals, 1),
        "raft.self_us_per_op": layer_us_per_op("raft"),
        "raft.commit_sim_ms_p50":
            statistics.median(commit_ms) if commit_ms else 0.0,
        "storage.mvcc.calls_per_op": sum(
            calls[i] for i in range(n_shims)
            if layers[i] == "storage.mvcc") / ops,
        "storage.mvcc.self_us_per_op": layer_us_per_op("storage.mvcc"),
        "storage.locktable.waits_per_op":
            total(calls, "LockTable.wait_for") / ops,
        "storage.locktable.wait_sim_ms_per_op":
            total(sim_ms, "LockTable.wait_for") / ops,
        "kv.distsender.rpcs_per_op": rpcs / ops,
        # RPC attempts that failed and were tried again (or, on the last
        # attempt, surfaced): counted where each is given up on.
        "kv.distsender.retries_per_op": failed_rpcs / ops,
        "kv.distsender.self_us_per_op": layer_us_per_op("kv.distsender"),
        "kv.range.serves_per_op": sum(
            calls[i] for i in range(n_shims)
            if names[i].startswith("Range.serve_")) / ops,
        "kv.range.self_us_per_op": layer_us_per_op("kv.range"),
        "txn.attempts_per_commit":
            total(calls, "TransactionCoordinator.begin") / max(commits, 1),
        "txn.self_us_per_op": layer_us_per_op("txn"),
        "txn.commit_wait_sim_ms_per_op":
            total(sim_ms, "Transaction._commit_wait_if_needed") / ops,
        "txn.epoch.validation_aborts_per_commit": failed(
            "EpochTransaction.commit",
            "TransactionValidationError") / max(commits, 1),
        "txn.epoch.epoch_wait_sim_ms_per_op":
            total(sim_ms, "EpochService.submit") / ops,
        "txn.epoch.self_us_per_op": layer_us_per_op("txn.epoch"),
        "sql.parser.calls_per_op": total(calls, "parse") / ops,
        "sql.parser.self_us_per_op": layer_us_per_op("sql.parser"),
        "sql.executor.kv_ops_per_stmt":
            kv_ops / statements if statements else 0.0,
        "sql.executor.self_us_per_op": layer_us_per_op("sql.executor"),
        "admission.queue_sim_ms_per_op":
            total(sim_ms, "AdmissionController.admit_co") / ops,
        "admission.shed_share": shed / max(admits, 1),
        "admission.self_us_per_op": layer_us_per_op("admission"),
        "verify.check_us_per_txn": total(self_ns, "check") / 1000.0 / ops,
        "verify.check_share": total(self_ns, "check") / timed_ns,
        # Timed host time inside no span at all: the benchmark's own glue
        # and program code that runs outside Simulator.run unshimmed.
        "trace.unattributed_share": max(timed_ns - attributed, 0) / timed_ns,
    }
