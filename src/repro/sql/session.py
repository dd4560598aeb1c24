"""Sessions: the public SQL entry point.

Usage::

    from repro.cluster import standard_cluster
    from repro.sql import Engine

    cluster = standard_cluster(["us-east1", "us-west1", "europe-west2"])
    engine = Engine(cluster)
    session = engine.connect("us-east1")
    session.execute('CREATE DATABASE movr PRIMARY REGION "us-east1" '
                    'REGIONS "us-west1", "europe-west2"')
    session.execute("USE movr")
    session.execute("CREATE TABLE users (id int PRIMARY KEY, "
                    "email string UNIQUE) LOCALITY REGIONAL BY ROW")

``Session.execute`` is the synchronous driver (it advances the
simulation until the statement completes).  Workload generators running
many concurrent clients use the coroutine API (``execute_co`` /
``run_txn_co``) inside simulation processes instead.
"""

from __future__ import annotations

import random
import re
from typing import Any, Callable, Generator, List, Optional

from ..errors import (DatabaseError, SchemaError, SqlSyntaxError,
                      StaleReadBoundError)
from ..kv.distsender import ReadRouting
from ..sim.clock import Timestamp
from ..sim.core import all_of
from ..sim.network import NetworkUnavailableError
from ..txn.coordinator import TransactionCoordinator
from . import ast
from .catalog import Catalog, Database
from .eval import EvalEnv, evaluate
from .executor import ExecContext, Executor
from .parser import parse, parse_one
from .schema_changes import SchemaChangeEngine

__all__ = ["Engine", "Session"]

_DDL_TYPES = (
    ast.CreateDatabase, ast.AlterDatabaseAddRegion,
    ast.AlterDatabaseDropRegion, ast.AlterDatabaseSurvive,
    ast.AlterDatabasePlacement, ast.AlterDatabaseSetPrimaryRegion,
    ast.CreateTable, ast.AlterTableSetLocality, ast.AlterTableAddColumn,
    ast.CreateIndex, ast.DropTable,
)

_INTERVAL_RE = re.compile(r"^(-?\d+(?:\.\d+)?)(ms|s|m|h)$")
_INTERVAL_MS = {"ms": 1.0, "s": 1000.0, "m": 60_000.0, "h": 3_600_000.0}


def parse_interval_ms(text: str) -> float:
    """Parse interval strings like '-30s', '500ms', '2m' to milliseconds."""
    match = _INTERVAL_RE.match(text.strip())
    if not match:
        raise SqlSyntaxError(f"bad interval {text!r}")
    return float(match.group(1)) * _INTERVAL_MS[match.group(2)]


class Engine:
    """One logical SQL layer for a cluster: catalog + schema + txns."""

    def __init__(self, cluster, side_transport_interval_ms: float = 100.0,
                 closed_ts_lag_ms: Optional[float] = None, seed: int = 0):
        self.cluster = cluster
        self.catalog = Catalog()
        self.schema = SchemaChangeEngine(
            cluster, self.catalog,
            side_transport_interval_ms=side_transport_interval_ms,
            closed_ts_lag_ms=closed_ts_lag_ms)
        #: Runs on the cluster's protocol.  A verify.HistoryRecorder is
        #: attached as ``coordinator.recorder``: it then captures every
        #: transaction and stale-read statement.
        self.coordinator = TransactionCoordinator(cluster)
        self.uuid_source = random.Random(seed)

    @property
    def recorder(self):
        return self.coordinator.recorder

    def connect(self, region: str, index: int = 0) -> "Session":
        """Open a session gatewayed at a node in ``region``."""
        gateway = self.cluster.gateway_for_region(region, index)
        return Session(self, gateway)


class _StaleReadTxn:
    """Duck-typed read-only 'transaction' backed by stale reads (§5.3).

    Presents the subset of the Transaction interface the executor's read
    path uses, but serves each key with exact- or bounded-staleness
    reads from nearby replicas.
    """

    def __init__(self, engine: Engine, gateway, kind: str,
                 ts: Timestamp, nearest_only: bool = False, span=None,
                 label: Optional[str] = None):
        self.engine = engine
        self.gateway = gateway
        self.kind = kind  # 'exact' | 'bounded'
        self.read_ts = ts
        self.nearest_only = nearest_only
        #: Parent span for the stale reads (the SQL statement's span).
        self.span = span
        #: History-recorder record for this statement (verify subsystem).
        recorder = engine.recorder
        self._record = (recorder.begin_stale(gateway, kind, ts, label=label)
                        if recorder is not None else None)

    def _note_read(self, rng, key, result, effective_ts=None) -> None:
        if self._record is not None:
            self.engine.recorder.on_stale_read(
                self._record, rng, key, result, effective_ts=effective_ts)

    def finish(self, ok: bool = True) -> None:
        if self._record is not None:
            self.engine.recorder.finish_stale(self._record, ok=ok)

    def _read_future(self, rng, key):
        ds = self.engine.coordinator.distsender
        if self.kind == "exact":
            return ds.exact_staleness_read(self.gateway, rng, key,
                                           self.read_ts, span=self.span)
        return ds.bounded_staleness_read(self.gateway, rng, key,
                                         self.read_ts,
                                         nearest_only=self.nearest_only,
                                         span=self.span)

    def read(self, rng, key, routing=ReadRouting.NEAREST) -> Generator:
        result = yield self._read_future(rng, key)
        if self.kind == "bounded":
            result, served_ts = result
            self._note_read(rng, key, result, effective_ts=served_ts)
        else:
            self._note_read(rng, key, result)
        return result.value

    def read_batch(self, requests, routing=ReadRouting.NEAREST) -> Generator:
        if self.kind == "bounded" and len(requests) > 1:
            # Multi-key bounded staleness negotiates one timestamp across
            # all touched ranges first (§5.3.2), then reads at it.
            ds = self.engine.coordinator.distsender
            try:
                negotiated = yield ds.negotiate_bounded_staleness(
                    self.gateway, requests, self.read_ts, span=self.span)
            except StaleReadBoundError:
                if self.nearest_only:
                    raise
                # Redirect the whole batch to leaseholders at the bound.
                futures = [ds.read(self.gateway, rng, key, self.read_ts,
                                   span=self.span)
                           for rng, key in requests]
                results = yield all_of(self.engine.cluster.sim, futures)
                for (rng, key), (result, served_ts) in zip(requests, results):
                    self._note_read(rng, key, result,
                                    effective_ts=served_ts)
                return [result.value for result, _ts in results]
            futures = [ds.exact_staleness_read(self.gateway, rng, key,
                                               negotiated, span=self.span)
                       for rng, key in requests]
            results = yield all_of(self.engine.cluster.sim, futures)
            for (rng, key), result in zip(requests, results):
                self._note_read(rng, key, result, effective_ts=negotiated)
            return [r.value for r in results]
        futures = [self._read_future(rng, key) for rng, key in requests]
        results = yield all_of(self.engine.cluster.sim, futures)
        if self.kind == "bounded":
            for (rng, key), (result, served_ts) in zip(requests, results):
                self._note_read(rng, key, result, effective_ts=served_ts)
            results = [r[0] for r in results]
        else:
            for (rng, key), result in zip(requests, results):
                self._note_read(rng, key, result)
        return [r.value for r in results]


class TxnHandle:
    """Statement execution bound to one open transaction."""

    def __init__(self, session: "Session", txn):
        self.session = session
        self.txn = txn
        self._executor = session._executor()

    def execute(self, sql: str) -> Generator:
        stmt = parse_one(sql)
        result = yield from self.execute_stmt(stmt)
        return result

    def execute_stmt(self, stmt: Any, auto_commit: bool = False) -> Generator:
        """``auto_commit``: ``stmt`` is the whole transaction (an
        implicit one), so its last write may carry the commit."""
        executor = self._executor
        if isinstance(stmt, ast.Insert):
            result = yield from executor.insert(self.txn, stmt, auto_commit)
        elif isinstance(stmt, ast.Select):
            if stmt.compiled.as_of is not None:
                raise SchemaError(
                    "AS OF SYSTEM TIME not allowed inside a read-write "
                    "transaction")
            result = yield from executor.select(self.txn, stmt)
        elif isinstance(stmt, ast.Update):
            result = yield from executor.update(self.txn, stmt, auto_commit)
        elif isinstance(stmt, ast.Delete):
            result = yield from executor.delete(self.txn, stmt, auto_commit)
        else:
            raise SchemaError(
                f"statement not allowed in a transaction: {stmt!r}")
        return result


class Session:
    """A client connection pinned to a gateway node."""

    def __init__(self, engine: Engine, gateway):
        self.engine = engine
        self.gateway = gateway
        #: Session name threaded into recorded histories (verify).
        self.label: Optional[str] = None
        self.database: Optional[Database] = None
        #: Statements executed, split by class (Table 2 accounting).
        self.ddl_statement_count = 0
        self.dml_statement_count = 0
        #: Statement class -> (``sql.statements`` counter, ``sql.stmt``
        #: span tags): resolved once per kind per session.
        self._stmt_obs = {}
        self._tracer = engine.cluster.sim.obs.tracer
        #: Built once: the region is the gateway's and the UUID source
        #: the engine's, for as long as the session lives.
        self._env = EvalEnv(gateway_region=self.region,
                            uuid_source=engine.uuid_source)
        #: The executor for ``database``; rebuilt when that changes.
        self._cached_executor: Optional[Executor] = None
        #: Open explicit transaction (BEGIN ... COMMIT), if any.
        self._open_txn = None

    @property
    def region(self) -> str:
        return self.gateway.locality.region

    # -- helpers ---------------------------------------------------------------------

    def _executor(self) -> Executor:
        database = self.database
        if database is None:
            raise SchemaError("no database selected (USE <db>)")
        executor = self._cached_executor
        if executor is None or executor.context.database is not database:
            executor = self._cached_executor = Executor(
                ExecContext(database, self.gateway, self._env))
        return executor

    def _require_database(self, name: Optional[str] = None) -> Database:
        if name is not None:
            return self.engine.catalog.database(name)
        if self.database is None:
            raise SchemaError("no database selected (USE <db>)")
        return self.database

    # -- synchronous driver API ---------------------------------------------------------

    def execute(self, sql: str) -> Any:
        """Execute a SQL script synchronously (drives the simulation).

        Returns the result of the last statement: rows for SELECT,
        a row count for DML, None for DDL.
        """
        result = None
        for stmt in parse(sql):
            result = self.execute_stmt(stmt)
        return result

    def execute_stmt(self, stmt: Any) -> Any:
        if self._apply_non_dml(stmt, dry_run=True):
            return self._apply_non_dml(stmt)
        process = self.engine.cluster.sim.spawn(
            self.execute_stmt_co(stmt), name="sql-stmt")
        return self.engine.cluster.sim.run_until_future(process)

    # -- coroutine API (for workloads running inside the simulation) ----------------------

    def execute_co(self, sql: str) -> Generator:
        stmt = parse_one(sql)
        if self._apply_non_dml(stmt, dry_run=True):
            return self._apply_non_dml(stmt)
        result = yield from self.execute_stmt_co(stmt)
        return result

    def run_txn_co(self, txn_body: Callable[[TxnHandle], Generator],
                   parent_span=None) -> Generator:
        """Run a multi-statement transaction (with automatic retries)."""
        def txn_fn(txn):
            handle = TxnHandle(self, txn)
            result = yield from txn_body(handle)
            return result
        result, _commit_ts = yield from self.engine.coordinator.run(
            self.gateway, txn_fn, parent_span=parent_span, label=self.label)
        return result

    def execute_stmt_co(self, stmt: Any) -> Generator:
        if isinstance(stmt, (ast.Begin, ast.Commit, ast.Rollback)):
            result = yield from self._explicit_txn_stmt(stmt)
            return result
        self.dml_statement_count += 1
        stmt_obs = self._stmt_obs.get(type(stmt))
        if stmt_obs is None:
            kind = type(stmt).__name__.lower()
            counter = self.engine.cluster.sim.obs.registry.counter(
                "sql.statements", kind=kind, region=self.region)
            stmt_obs = self._stmt_obs[type(stmt)] = (
                counter, ("kind", kind, "region", self.region))
        stmt_obs[0].inc()
        tracer = self._tracer
        if isinstance(stmt, ast.Select) and \
                stmt.compiled.as_of is not None:
            if self._open_txn is not None:
                raise SchemaError(
                    "AS OF SYSTEM TIME not allowed inside a transaction")
            stmt_span = tracer.start(
                "sql.stmt", None,
                stmt_obs[1] + ("stale", stmt.compiled.as_of.kind))
            try:
                result = yield from self._stale_select(stmt, stmt_span)
            finally:
                tracer.finish(stmt_span)
            return result

        if self._open_txn is not None:
            # Inside BEGIN ... COMMIT: no automatic retry — a retryable
            # error surfaces to the client (SQLSTATE 40001 style) and
            # aborts the transaction, as in real SQL sessions.  The
            # statement rides the transaction's own root span.
            handle = TxnHandle(self, self._open_txn)
            try:
                result = yield from handle.execute_stmt(stmt)
            except (DatabaseError, NetworkUnavailableError):
                # The statement's error is what the client must see: an
                # unreachable anchor range fails the rollback too, and
                # its intents are left to the waiters' pushes.  A bug
                # propagates with the transaction left open.
                txn, self._open_txn = self._open_txn, None
                yield from self.engine.coordinator.rollback_best_effort(txn)
                tracer.finish(txn.span, "status", txn.status)
                raise
            return result

        def body(handle: TxnHandle) -> Generator:
            result = yield from handle.execute_stmt(stmt, auto_commit=True)
            return result

        stmt_span = tracer.start("sql.stmt", None, stmt_obs[1])
        try:
            result = yield from self.run_txn_co(body, parent_span=stmt_span)
        finally:
            tracer.finish(stmt_span)
        return result

    def _explicit_txn_stmt(self, stmt: Any) -> Generator:
        if isinstance(stmt, ast.Begin):
            if self._open_txn is not None:
                raise SchemaError("transaction already open")
            self._open_txn = self.engine.coordinator.begin(
                self.gateway, label=self.label)
            return None
        if self._open_txn is None:
            raise SchemaError("no transaction open")
        txn, self._open_txn = self._open_txn, None
        try:
            if isinstance(stmt, ast.Commit):
                try:
                    commit_ts = yield from txn.commit()
                except (DatabaseError, NetworkUnavailableError):
                    yield from self.engine.coordinator.rollback_best_effort(
                        txn)
                    raise
                return commit_ts
            yield from txn.rollback()
            return None
        finally:
            self._tracer.finish(txn.span, "status", txn.status)

    # -- DDL and other instantaneous statements ---------------------------------------------

    def _apply_non_dml(self, stmt: Any, dry_run: bool = False) -> Any:
        """Apply DDL/metadata statements; with dry_run, just classify."""
        is_non_dml = isinstance(stmt, _DDL_TYPES + (
            ast.ShowRegions, ast.UseDatabase, ast.Explain,
            ast.ShowRanges, ast.ShowZoneConfiguration))
        if dry_run:
            return is_non_dml
        if isinstance(stmt, ast.Explain):
            return self.explain(stmt.statement)
        if isinstance(stmt, ast.ShowRanges):
            return self._show_ranges(stmt.table)
        if isinstance(stmt, ast.ShowZoneConfiguration):
            return self._show_zone_configuration(stmt.table)
        schema = self.engine.schema
        if isinstance(stmt, _DDL_TYPES):
            # Let in-flight replication and intent resolution drain before
            # schema operations that snapshot or validate table data
            # (stands in for CRDB's online schema-change coordination).
            sim = self.engine.cluster.sim
            sim.run(until=sim.now + 600.0)
        if isinstance(stmt, ast.UseDatabase):
            self.database = self.engine.catalog.database(stmt.name)
            return None
        if isinstance(stmt, ast.ShowRegions):
            if stmt.from_database is not None:
                return self._require_database(stmt.from_database).regions
            return self.engine.cluster.regions()
        self.ddl_statement_count += 1
        self.engine.cluster.sim.obs.registry.counter(
            "sql.ddl_statements").inc()
        if isinstance(stmt, ast.CreateDatabase):
            database = schema.create_database(stmt)
            self.database = database
            return None
        if isinstance(stmt, ast.AlterDatabaseAddRegion):
            schema.add_region(self.engine.catalog.database(stmt.database),
                              stmt.region)
            return None
        if isinstance(stmt, ast.AlterDatabaseDropRegion):
            schema.drop_region(self.engine.catalog.database(stmt.database),
                               stmt.region)
            return None
        if isinstance(stmt, ast.AlterDatabaseSurvive):
            schema.set_survival_goal(
                self.engine.catalog.database(stmt.database), stmt.goal)
            return None
        if isinstance(stmt, ast.AlterDatabasePlacement):
            schema.set_placement(
                self.engine.catalog.database(stmt.database), stmt.restricted)
            return None
        if isinstance(stmt, ast.AlterDatabaseSetPrimaryRegion):
            schema.set_primary_region(
                self.engine.catalog.database(stmt.database), stmt.region)
            return None
        database = self._require_database()
        if isinstance(stmt, ast.CreateTable):
            schema.create_table(database, stmt)
            return None
        if isinstance(stmt, ast.AlterTableSetLocality):
            schema.alter_table_locality(database,
                                        database.table(stmt.table),
                                        stmt.locality)
            return None
        if isinstance(stmt, ast.AlterTableAddColumn):
            schema.add_column(database, database.table(stmt.table),
                              stmt.column)
            return None
        if isinstance(stmt, ast.CreateIndex):
            schema.create_secondary_index(database,
                                          database.table(stmt.table), stmt)
            return None
        if isinstance(stmt, ast.DropTable):
            schema.drop_table(database, stmt.name)
            return None
        raise SchemaError(f"unhandled statement {stmt!r}")

    # -- EXPLAIN (§4) ------------------------------------------------------------------------

    def explain(self, stmt: Any) -> List[str]:
        """The locality-aware plan for a DML statement, as text lines.

        Shows which partitions a lookup visits (point read / locality
        optimized search / fan-out) and, for INSERTs, which uniqueness
        checks run where and which the §4.1 rules omit.
        """
        database = self._require_database()
        executor = self._executor()
        planner = executor.context.planner
        lines: List[str] = []
        if isinstance(stmt, (ast.Select, ast.Update, ast.Delete)):
            table = database.table(stmt.table)
            plan = planner.plan_point_query(
                table, stmt.compiled, stmt.params,
                limit=getattr(stmt, "limit", None))
            lines.append(plan.explain())
            if isinstance(stmt, ast.Select) and stmt.for_update:
                lines.append("lock: exclusive (FOR UPDATE)")
            if isinstance(stmt, ast.Update):
                sample = {c: None for c in table.columns}
                region_col = table.region_column
                if region_col:
                    sample[region_col] = self.region
                checks = planner.plan_uniqueness_checks(
                    table, sample, changed_columns=stmt.compiled.assigned)
                for check in checks:
                    lines.append(check.explain())
        elif isinstance(stmt, ast.Insert):
            table = database.table(stmt.table)
            row, generated = executor._build_row(
                table, stmt.columns, stmt.compiled.rows[0], stmt.params)
            partition = (row.get(table.region_column)
                         if table.region_column else "default")
            lines.append(
                f"insert {table.name} partition={partition or 'default'}")
            checks = planner.plan_uniqueness_checks(
                table, row, generated_columns=generated)
            if not checks:
                lines.append("uniqueness-checks: none")
            for check in checks:
                lines.append(check.explain())
        else:
            raise SchemaError(f"cannot EXPLAIN {type(stmt).__name__}")
        return lines

    # -- placement introspection (§3) -----------------------------------------------------

    def _show_ranges(self, table_name: str) -> List[dict]:
        """One row per *live* Range: span, lease, and replica regions.

        Partitions hold routing tokens, enumerated through their span's
        current descriptors, so the output tracks splits and merges as
        they happen (a never-split partition is one full-span range at
        generation 1).
        """
        database = self._require_database()
        table = database.table(table_name)
        out = []
        for index in table.indexes:
            for partition, token in sorted(index.partitions.items()):
                for rng in token.span.ranges():
                    voters = sorted(p.node.locality.region
                                    for p in rng.group.voters())
                    non_voters = sorted(p.node.locality.region
                                        for p in rng.group.non_voters())
                    descriptor = rng.descriptor
                    out.append({
                        "index": index.name,
                        "partition": partition or "default",
                        "range": rng.name,
                        "span": descriptor.span_repr(),
                        "generation": descriptor.generation,
                        "lease_region":
                            rng.leaseholder_node.locality.region,
                        "voters": voters,
                        "non_voters": non_voters,
                    })
        return out

    def _show_zone_configuration(self, table_name: str) -> List[dict]:
        """The derived zone config per partition (Listing 1 fields)."""
        database = self._require_database()
        table = database.table(table_name)
        schema = self.engine.schema
        out = []
        partitions = sorted(table.primary_index.partitions)
        for partition in partitions:
            home = (partition if partition else
                    table.home_region()
                    or self.engine.cluster.regions()[0])
            config = schema._zone_config(database, table, home)
            out.append({
                "partition": partition or "default",
                "num_replicas": config.num_replicas,
                "num_voters": config.num_voters,
                "constraints": dict(config.constraints),
                "voter_constraints": dict(config.voter_constraints),
                "lease_preferences": list(config.lease_preferences),
            })
        return out

    # -- stale reads (§5.3) ----------------------------------------------------------------

    def _stale_select(self, stmt: ast.Select, span=None) -> Generator:
        if stmt.for_update:
            raise SchemaError(
                "FOR UPDATE not allowed with AS OF SYSTEM TIME")
        as_of = stmt.compiled.as_of
        now = self.gateway.clock.now()
        value = evaluate(as_of.value, None, self._env, stmt.params)
        if as_of.kind == "exact":
            ts = self._resolve_time_value(value, now)
            stale = _StaleReadTxn(self.engine, self.gateway, "exact", ts,
                                  span=span, label=self.label)
        elif as_of.kind == "min_timestamp":
            ts = self._resolve_time_value(value, now)
            stale = _StaleReadTxn(self.engine, self.gateway, "bounded", ts,
                                  span=span, label=self.label)
        elif as_of.kind == "max_staleness":
            bound_ms = (parse_interval_ms(value) if isinstance(value, str)
                        else float(value))
            ts = Timestamp(now.physical - abs(bound_ms))
            stale = _StaleReadTxn(self.engine, self.gateway, "bounded", ts,
                                  span=span, label=self.label)
        else:
            raise SqlSyntaxError(f"unknown AS OF kind {as_of.kind!r}")
        # ``select`` never reads the AS OF clause: that was this method's.
        result = yield from self._executor().select(stale, stmt)
        stale.finish()
        return result

    def _resolve_time_value(self, value: Any, now: Timestamp) -> Timestamp:
        """Interpret an AS OF operand: '-30s' intervals are relative to
        now; bare numbers are absolute simulated milliseconds."""
        if isinstance(value, str):
            return Timestamp(now.physical + parse_interval_ms(value))
        return Timestamp(float(value))
