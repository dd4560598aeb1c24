"""DML execution: INSERT / SELECT / UPDATE / DELETE over table Ranges.

Key encodings:

* primary index:   key = (pk column values...), value = the full row dict;
* secondary index: key = (index column values...), value = the pk tuple.

REGIONAL BY ROW tables store each row (and its index entries) in the
partition named by the row's region column; the planner decides which
partitions a lookup must visit (§4.2) and which uniqueness checks an
INSERT/UPDATE needs (§4.1).  Automatic rehoming (§2.3.2) moves a row
between partitions when an UPDATE from another region fires the
``ON UPDATE rehome_row()`` clause.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from ..errors import (
    ConditionFailedError,
    ForeignKeyViolationError,
    SchemaError,
    UniqueViolationError,
)
from ..kv.distsender import ReadRouting
from ..kv.keyspace import encode_key
# The module, not ``Planner``: whichever of repro.sql / repro.optimizer is
# imported first, the other is only part-initialised at this point.
from ..optimizer import planner as planning
from ..optimizer.plans import (
    FanoutMultiRead,
    FanoutPointRead,
    FullScan,
    LocalityOptimizedMultiRead,
    LocalityOptimizedRead,
    MultiPointRead,
    PartitionPointRead,
    UniquenessCheck,
)
from . import ast
from .catalog import DEFAULT_PARTITION, Database, Table
from .eval import EvalEnv, evaluate

__all__ = ["Executor", "ExecContext"]


class ExecContext:
    """What a session's statements execute against: built once per
    session and database, not per statement."""

    def __init__(self, database: Database, gateway, env: EvalEnv):
        self.database = database
        self.gateway = gateway
        self.env = env
        self.gateway_region: str = gateway.locality.region
        self.planner = planning.Planner(self.gateway_region, env)


def _routing_for(table: Table) -> str:
    """GLOBAL tables read from the nearest replica (§6); REGIONAL tables
    read at the leaseholder."""
    return (ReadRouting.NEAREST if table.locality.is_global
            else ReadRouting.LEASEHOLDER)


def plan_on_primary(plan, table: Table) -> bool:
    """Does the plan look rows up directly in the primary index?"""
    index = getattr(plan, "index", None)
    return index is not None and index.is_primary and not \
        isinstance(plan, FullScan)


class Executor:
    """Executes DML statements inside a transaction.

    Every statement runs from its ``compiled`` form and ``params`` (see
    :mod:`repro.sql.ast`); the statement's literal-bearing fields are
    never read here.
    """

    def __init__(self, context: ExecContext):
        self.context = context

    # -- INSERT --------------------------------------------------------------------

    def insert(self, txn, stmt: ast.Insert,
               auto_commit: bool = False) -> Generator:
        """Insert rows; returns the number of rows written.

        Every row is built first; their primary-index writes go out as
        conditional puts (CRDB's CPut: the leaseholder lays the intent
        only if the key has no live value) — one request for one row,
        one per range for several — and each row's index entries,
        uniqueness checks and foreign keys follow.

        ``auto_commit`` (here and on UPDATE / DELETE): the statement is
        the whole of an implicit transaction, so a row write that is
        provably its last KV operation may carry the commit
        (:meth:`_nothing_follows`)."""
        table = self.context.database.table(stmt.table)
        params = stmt.params
        planner = self.context.planner
        primary = table.primary_index
        region_col = table.region_column
        rows = []
        for value_exprs in stmt.compiled.rows:
            row, generated = self._build_row(table, stmt.columns,
                                             value_exprs, params)
            partition = DEFAULT_PARTITION
            if region_col is not None:
                partition = row[region_col]
                self.context.database.region_enum.validate_writable(partition)
            pk = tuple(row[c] for c in table.primary_key)
            # Post-write uniqueness checks (§4.1), self-matches allowed.
            requests, meta = self._uniqueness_requests(
                planner.plan_uniqueness_checks(
                    table, row, generated_columns=generated, allow_pk=pk),
                partition)
            rows.append((row, partition, pk, requests, meta))
        try:
            if len(rows) == 1:
                row, partition, pk, requests, _meta = rows[0]
                yield from txn.write(
                    primary.partition_for(partition), pk, row,
                    commit=auto_commit and self._nothing_follows(table,
                                                                 requests),
                    expect_absent=True)
            else:
                yield from txn.write_batch(
                    [(primary.partition_for(partition), pk, row)
                     for row, partition, pk, _requests, _meta in rows],
                    expect_absent=True)
        except ConditionFailedError as err:
            # The home partition's duplicate-PK check; remote partitions
            # are covered by the uniqueness checks.
            raise UniqueViolationError(table.name, table.primary_key,
                                       err.key) from None
        routing = _routing_for(table)
        for row, partition, pk, requests, meta in rows:
            for index in table.unique_indexes():
                key = tuple(row[c] for c in index.key_columns)
                yield from self._cput_index_entry(
                    txn, table, index, partition, key, pk)
            yield from self._run_uniqueness_checks(
                txn, table, requests, meta, partition, routing)
            # Foreign keys need strongly-consistent parent reads
            # (§2.3.3): cheap when the parent is GLOBAL (served by the
            # local replica), potentially cross-region otherwise — the
            # paper's motivation for GLOBAL dimension tables.
            yield from self._validate_foreign_keys(txn, table, row)
        return len(rows)

    def _nothing_follows(self, table: Table, check_requests: list,
                         changed: Optional[frozenset] = None) -> bool:
        """CRDB's ``canAutoCommit`` rule, decided before the row write:
        will the statement touch the KV layer again after it?  Not if it
        has no unique-index entry to write, no uniqueness check to read,
        no foreign key to validate (``changed``: only these columns
        changed; None: all) and no child table to cascade to."""
        if check_requests or table.unique_indexes():
            return False
        for column in table.columns.values():
            if column.references is not None and (
                    changed is None or column.name in changed):
                return False
        for fk in table.foreign_keys:
            if changed is None or not changed.isdisjoint(fk.columns):
                return False
        if changed is not None:
            for child in self.context.database.tables.values():
                for fk in child.foreign_keys:
                    if fk.parent == table.name and fk.on_update_cascade:
                        return False
        return True

    def _build_row(self, table: Table, columns: List[str],
                   value_exprs: List[Any], params: Tuple = ()
                   ) -> Tuple[Dict[str, Any], frozenset]:
        if len(columns) != len(value_exprs):
            raise SchemaError("INSERT column/value count mismatch")
        env = self.context.env
        provided = {}
        for name, expr in zip(columns, value_exprs):
            table.column(name)  # existence check
            provided[name] = evaluate(expr, None, env, params)
        row: Dict[str, Any] = {}
        generated = set()
        for column in table.columns.values():
            if column.computed is not None:
                continue
            if column.name in provided:
                row[column.name] = provided[column.name]
            elif column.default is not None:
                row[column.name] = evaluate(column.default, row, env)
                if isinstance(column.default, ast.FuncCall) and \
                        column.default.name == "gen_random_uuid":
                    generated.add(column.name)
            else:
                row[column.name] = None
        for column in table.columns.values():
            if column.computed is not None:
                row[column.name] = evaluate(column.computed, row, env)
        for column in table.columns.values():
            if column.not_null and row.get(column.name) is None:
                raise SchemaError(
                    f"null value in NOT NULL column {column.name!r}")
        return row, frozenset(generated)

    def _validate_foreign_keys(self, txn, table: Table,
                               row: Dict[str, Any],
                               changed: Optional[frozenset] = None
                               ) -> Generator:
        database = self.context.database
        # Column-level ``col REFERENCES parent`` (parent pk implied).
        for column in table.columns.values():
            if column.references is None:
                continue
            if changed is not None and column.name not in changed:
                continue
            value = row.get(column.name)
            if value is None:
                continue
            parent = database.table(column.references)
            pairs = [(parent.primary_key[0], value)]
            yield from self._check_parent_exists(
                txn, table, parent, column.name, pairs)
        # Table-level FOREIGN KEY (cols) REFERENCES parent (cols).
        for fk in table.foreign_keys:
            if changed is not None and not (set(fk.columns) & set(changed)):
                continue
            values = [row.get(c) for c in fk.columns]
            if any(v is None for v in values):
                continue
            parent = database.table(fk.parent)
            parent_columns = (fk.parent_columns
                              or parent.primary_key[:len(fk.columns)])
            pairs = list(zip(parent_columns, values))
            yield from self._check_parent_exists(
                txn, table, parent, ",".join(fk.columns), pairs)
        return None

    def _check_parent_exists(self, txn, table: Table, parent: Table,
                             label: str, pairs) -> Generator:
        """One strongly-consistent parent lookup (§2.3.3)."""
        parts = tuple(
            ast.Comparison("=", ast.ColumnRef(col), ast.Literal(value))
            for col, value in pairs)
        where: Any = parts[0] if len(parts) == 1 else \
            ast.LogicalAnd(parts=parts)
        plan = self.context.planner.plan_point_query(
            parent, ast.Compiled(where=where))
        parents = yield from self._lookup_rows(txn, parent, plan, where, ())
        if not parents:
            raise ForeignKeyViolationError(
                table.name, label, tuple(value for _c, value in pairs))
        return None

    def _cascade_to_children(self, txn, table: Table,
                             old_row: Dict[str, Any],
                             new_row: Dict[str, Any],
                             changed: frozenset) -> Generator:
        """ON UPDATE CASCADE (§2.3.2): propagate changed referenced
        columns to child rows — in particular, when the parent's region
        column changes, collocated children move with it."""
        database = self.context.database
        for child in database.tables.values():
            for fk in child.foreign_keys:
                if fk.parent != table.name or not fk.on_update_cascade:
                    continue
                parent_columns = (fk.parent_columns
                                  or table.primary_key[:len(fk.columns)])
                touched = [
                    (child_col, parent_col)
                    for child_col, parent_col in zip(fk.columns,
                                                     parent_columns)
                    if parent_col in changed
                ]
                if not touched:
                    continue
                # Children matching the OLD parent values...
                where = ast.LogicalAnd(parts=tuple(
                    ast.Comparison("=", ast.ColumnRef(child_col),
                                   ast.Literal(old_row[parent_col]))
                    for child_col, parent_col in zip(fk.columns,
                                                     parent_columns)))
                # ...get the NEW values (moving partitions if the child's
                # region column is among them).
                update = ast.Update(
                    table=child.name,
                    assignments=[
                        (child_col, ast.Literal(new_row[parent_col]))
                        for child_col, parent_col in touched
                    ],
                    where=where)
                yield from self.update(txn, update)
        return None

    def _cput_index_entry(self, txn, table: Table, index, partition: str,
                          key, pk) -> Generator:
        """Write a unique-index entry as a conditional put (CRDB's
        CPut): a live entry pointing at a different row is a violation,
        one already pointing at this row is written over."""
        rng = index.partition_for(partition)
        try:
            yield from txn.write(rng, key, pk, expect_absent=True)
        except ConditionFailedError as err:
            if tuple(err.existing) != tuple(pk):
                raise UniqueViolationError(table.name, index.key_columns,
                                           key) from None
            yield from txn.write(rng, key, pk)
        return None

    def _uniqueness_requests(self, checks: List[UniquenessCheck],
                             home_partition: str) -> Tuple[list, list]:
        """The reads ``checks`` come to — ``(range, key)`` requests and,
        beside each, its ``(check, partition)`` — known before the row
        is written."""
        requests = []
        meta = []
        for check in checks:
            for partition in check.partitions:
                if check.index.is_primary and partition == home_partition:
                    continue  # already verified by the conditional put
                rng = check.index.partitions.get(partition)
                if rng is None:
                    continue
                requests.append((rng, check.key))
                meta.append((check, partition))
        return requests, meta

    def _run_uniqueness_checks(self, txn, table: Table, requests: list,
                               meta: list, home_partition: str,
                               routing: str) -> Generator:
        if not requests:
            return None
        results = yield from txn.read_batch(requests, routing=routing)
        for (check, partition), found in zip(meta, results):
            if found is None:
                continue
            found_pk = found if not check.index.is_primary else \
                tuple(found[c] for c in table.primary_key)
            if check.allow_pk is not None and \
                    tuple(found_pk) == tuple(check.allow_pk) and \
                    partition == home_partition:
                continue
            raise UniqueViolationError(table.name, check.constraint,
                                       check.key)
        return None

    # -- row lookup (shared by SELECT/UPDATE/DELETE) -----------------------------------

    def _lookup_rows(self, txn, table: Table, plan,
                     where: Optional[Any], params: Tuple,
                     locking: bool = False) -> Generator:
        """Execute a read plan; returns a list of (row, partition).

        ``locking`` (SELECT FOR UPDATE on a primary-index plan) turns
        point reads into locking reads that pin the row in one
        leaseholder visit.
        """
        routing = _routing_for(table)

        if isinstance(plan, PartitionPointRead):
            rng = plan.index.partitions.get(plan.partition)
            if rng is None:
                return []
            if locking:
                value = yield from txn.locking_read(rng, plan.key)
            else:
                value = yield from txn.read(rng, plan.key, routing=routing)
            rows = yield from self._resolve_index_hits(
                txn, table, plan.index, [(value, plan.partition)], routing)
            return rows

        if isinstance(plan, LocalityOptimizedRead):
            local_rng = plan.index.partitions[plan.local_partition]
            if locking:
                value = yield from txn.locking_read(local_rng, plan.key)
            else:
                value = yield from txn.read(local_rng, plan.key,
                                            routing=routing)
            if value is not None:
                rows = yield from self._resolve_index_hits(
                    txn, table, plan.index,
                    [(value, plan.local_partition)], routing)
                return rows
            # Local miss: fan out to every remote partition in parallel.
            requests = [(plan.index.partitions[p], plan.key)
                        for p in plan.remote_partitions]
            if not requests:
                return []
            results = yield from txn.read_batch(requests, routing=routing)
            hits = [(value, partition) for value, partition in
                    zip(results, plan.remote_partitions) if value is not None]
            rows = yield from self._resolve_index_hits(
                txn, table, plan.index, hits, routing)
            return rows

        if isinstance(plan, FanoutPointRead):
            requests = [(plan.index.partitions[p], plan.key)
                        for p in plan.partitions]
            results = yield from txn.read_batch(requests, routing=routing)
            hits = [(value, partition) for value, partition in
                    zip(results, plan.partitions) if value is not None]
            rows = yield from self._resolve_index_hits(
                txn, table, plan.index, hits, routing)
            return rows

        if isinstance(plan, MultiPointRead):
            rng = plan.index.partitions.get(plan.partition)
            if rng is None:
                return []
            results = yield from txn.read_batch(
                [(rng, key) for key in plan.keys], routing=routing)
            hits = [(value, plan.partition) for value in results
                    if value is not None]
            rows = yield from self._resolve_index_hits(
                txn, table, plan.index, hits, routing)
            return rows

        if isinstance(plan, LocalityOptimizedMultiRead):
            # Probe every key locally in one batch; fan out only the
            # misses (the §4.2 IN-list generalization of LOS).
            local_rng = plan.index.partitions[plan.local_partition]
            local_results = yield from txn.read_batch(
                [(local_rng, key) for key in plan.keys], routing=routing)
            hits = [(value, plan.local_partition)
                    for value in local_results if value is not None]
            missing = [key for key, value in zip(plan.keys, local_results)
                       if value is None]
            if missing:
                requests = [(plan.index.partitions[p], key)
                            for key in missing
                            for p in plan.remote_partitions]
                remote_results = yield from txn.read_batch(
                    requests, routing=routing)
                for (rng_key, value) in zip(requests, remote_results):
                    if value is not None:
                        _rng, _key = rng_key
                        partition = next(
                            p for p in plan.remote_partitions
                            if plan.index.partitions[p] is _rng)
                        hits.append((value, partition))
            rows = yield from self._resolve_index_hits(
                txn, table, plan.index, hits, routing)
            return rows

        if isinstance(plan, FanoutMultiRead):
            requests = [(plan.index.partitions[p], key)
                        for key in plan.keys for p in plan.partitions]
            results = yield from txn.read_batch(requests, routing=routing)
            hits = []
            for (rng_key, value) in zip(requests, results):
                if value is not None:
                    _rng, _key = rng_key
                    partition = next(p for p in plan.partitions
                                     if plan.index.partitions[p] is _rng)
                    hits.append((value, partition))
            rows = yield from self._resolve_index_hits(
                txn, table, plan.index, hits, routing)
            return rows

        if isinstance(plan, FullScan):
            # Scans enumerate each partition's key set at the leaseholder
            # and then read every key transactionally (so in-flight
            # intents are handled like any other read).  Key enumeration
            # itself is a simulation shortcut standing in for a range
            # scan request; the per-key reads pay real latency.
            requests = []
            request_partitions = []
            primary = table.primary_index
            for partition in plan.partitions:
                token = primary.partitions[partition]
                # A partition's keys spread over its span's live ranges;
                # reads still go through the token so the DistSender
                # re-routes if a split races the scan.
                keys = set()
                for rng in token.span.ranges():
                    keys.update(rng.leaseholder_replica.store.keys())
                for key in sorted(keys, key=encode_key):
                    requests.append((token, key))
                    request_partitions.append(partition)
            if not requests:
                return []
            values = yield from txn.read_batch(requests, routing=routing)
            env = self.context.env
            rows = []
            for value, partition in zip(values, request_partitions):
                if value is None:
                    continue
                if where is None or evaluate(where, value, env, params):
                    rows.append((value, partition))
            return rows

        raise SchemaError(f"unsupported plan {plan!r}")

    def _resolve_index_hits(self, txn, table: Table, index, hits,
                            routing) -> Generator:
        """Map index hits to full rows (secondary indexes store the pk)."""
        rows = []
        primary = table.primary_index
        for value, partition in hits:
            if value is None:
                continue
            if index.is_primary:
                rows.append((value, partition))
            else:
                pk = tuple(value)
                row = yield from txn.read(primary.partitions[partition], pk,
                                          routing=routing)
                if row is not None:
                    rows.append((row, partition))
        return rows

    # -- SELECT -----------------------------------------------------------------------

    def select(self, txn, stmt: ast.Select) -> Generator:
        context = self.context
        table = context.database.table(stmt.table)
        where = stmt.compiled.where
        params = stmt.params
        plan = context.planner.plan_point_query(table, stmt.compiled, params,
                                                limit=stmt.limit)
        locking = stmt.for_update and plan_on_primary(plan, table)
        rows = yield from self._lookup_rows(txn, table, plan, where, params,
                                            locking=locking)
        env = context.env
        out = []
        matched = []
        for row, partition in rows:
            if where is not None and not evaluate(where, row, env, params):
                continue
            matched.append((row, partition))
            out.append(self._project(table, row, stmt.columns))
            if stmt.limit is not None and len(out) >= stmt.limit:
                break
        if stmt.for_update and not locking:
            # Lookup went through a secondary index or a scan: lock the
            # matched primary rows after the fact (may pay a refresh if
            # another writer slipped in between, exactly like CRDB's
            # non-primary FOR UPDATE plans).
            primary = table.primary_index
            for row, partition in matched:
                pk = tuple(row[c] for c in table.primary_key)
                yield from txn.locking_read(primary.partitions[partition],
                                            pk)
        return out

    def _project(self, table: Table, row: Dict[str, Any],
                 columns: List[str]) -> Dict[str, Any]:
        if columns == ["*"]:
            names = table.visible_columns()
        else:
            names = columns
        return {name: row.get(name) for name in names}

    # -- UPDATE ------------------------------------------------------------------------

    def update(self, txn, stmt: ast.Update,
               auto_commit: bool = False) -> Generator:
        context = self.context
        table = context.database.table(stmt.table)
        compiled = stmt.compiled
        where = compiled.where
        params = stmt.params
        plan = context.planner.plan_point_query(table, compiled, params)
        rows = yield from self._lookup_rows(txn, table, plan, where, params)
        auto_commit = auto_commit and len(rows) == 1
        env = context.env
        count = 0
        for row, partition in rows:
            if where is not None and not evaluate(where, row, env, params):
                continue
            yield from self._update_row(txn, table, row, partition,
                                        compiled, params, auto_commit)
            count += 1
        return count

    def _update_row(self, txn, table: Table, row: Dict[str, Any],
                    partition: str, compiled: ast.Compiled,
                    params: Tuple, auto_commit: bool = False) -> Generator:
        env = self.context.env
        database = self.context.database
        new_row = dict(row)
        assigned = compiled.assigned
        for name, expr in compiled.assignments:
            table.column(name)
            new_row[name] = evaluate(expr, row, env, params)
        # ON UPDATE clauses fire for columns not explicitly assigned
        # (this is how automatic rehoming triggers, §2.3.2).
        for column in table.columns.values():
            if column.on_update is not None and column.name not in assigned:
                new_row[column.name] = evaluate(column.on_update, new_row, env)
        # Recompute computed columns.
        for column in table.columns.values():
            if column.computed is not None:
                new_row[column.name] = evaluate(column.computed, new_row, env)

        changed = frozenset(name for name in new_row
                            if new_row.get(name) != row.get(name))
        if not changed:
            return None
        region_col = table.region_column
        new_partition = partition
        if region_col is not None:
            database.region_enum.validate_writable(new_row[region_col])
            new_partition = new_row[region_col]

        old_pk = tuple(row[c] for c in table.primary_key)
        new_pk = tuple(new_row[c] for c in table.primary_key)
        primary = table.primary_index
        routing = _routing_for(table)

        if new_partition != partition or new_pk != old_pk:
            # The row moves (rehoming or pk change): delete + reinsert.
            yield from txn.delete(primary.partitions[partition], old_pk)
            for index in table.unique_indexes():
                old_key = tuple(row[c] for c in index.key_columns)
                yield from txn.delete(index.partitions[partition], old_key)
            try:
                yield from txn.write(primary.partitions[new_partition],
                                     new_pk, new_row, expect_absent=True)
            except ConditionFailedError:
                raise UniqueViolationError(table.name, table.primary_key,
                                           new_pk) from None
            for index in table.unique_indexes():
                new_key = tuple(new_row[c] for c in index.key_columns)
                yield from self._cput_index_entry(
                    txn, table, index, new_partition, new_key, new_pk)
            requests, meta = self._uniqueness_requests(
                self.context.planner.plan_uniqueness_checks(
                    table, new_row, allow_pk=new_pk),  # full re-check there
                new_partition)
        else:
            requests, meta = self._uniqueness_requests(
                self.context.planner.plan_uniqueness_checks(
                    table, new_row, allow_pk=new_pk,
                    changed_columns=changed), partition)
            yield from txn.write(
                primary.partitions[partition], new_pk, new_row,
                commit=auto_commit and self._nothing_follows(
                    table, requests, changed))
            for index in table.unique_indexes():
                old_key = tuple(row[c] for c in index.key_columns)
                new_key = tuple(new_row[c] for c in index.key_columns)
                if old_key != new_key:
                    yield from txn.delete(index.partitions[partition],
                                          old_key)
                    yield from self._cput_index_entry(
                        txn, table, index, partition, new_key, new_pk)

        yield from self._run_uniqueness_checks(
            txn, table, requests, meta, new_partition, routing)
        yield from self._validate_foreign_keys(txn, table, new_row,
                                               changed=changed)
        yield from self._cascade_to_children(txn, table, row, new_row,
                                             changed)
        return None

    # -- DELETE -------------------------------------------------------------------------

    def delete(self, txn, stmt: ast.Delete,
               auto_commit: bool = False) -> Generator:
        context = self.context
        table = context.database.table(stmt.table)
        where = stmt.compiled.where
        params = stmt.params
        plan = context.planner.plan_point_query(table, stmt.compiled, params)
        rows = yield from self._lookup_rows(txn, table, plan, where, params)
        # One row and no index entry to delete after it: the tombstone
        # is the statement's last KV operation.
        auto_commit = (auto_commit and len(rows) == 1
                       and not table.unique_indexes())
        env = context.env
        count = 0
        for row, partition in rows:
            if where is not None and not evaluate(where, row, env, params):
                continue
            pk = tuple(row[c] for c in table.primary_key)
            yield from txn.delete(table.primary_index.partitions[partition],
                                  pk, commit=auto_commit)
            for index in table.unique_indexes():
                key = tuple(row[c] for c in index.key_columns)
                yield from txn.delete(index.partitions[partition], key)
            count += 1
        return count
