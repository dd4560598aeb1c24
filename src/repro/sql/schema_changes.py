"""Schema changes (paper §2.4).

Applies the multi-region DDL to the catalog and provisions/reconfigures
the underlying Ranges:

* ``CREATE TABLE ... LOCALITY ...`` provisions one Range per index (and
  per region for REGIONAL BY ROW) with the zone config derived from the
  database's survivability goal (§3.3);
* ``ALTER TABLE ... SET LOCALITY`` rebuilds the table's indexes under
  the new partitioning and backfills data (§2.4.2);
* ``ALTER DATABASE ... ADD/DROP REGION`` adds/removes
  ``crdb_internal_region`` ENUM values, creates/destroys REGIONAL BY ROW
  partitions, and re-places every affected Range; dropping first marks
  the value READ ONLY and validates no row is homed there (§2.4.1);
* survivability and placement changes re-derive every zone config.

Backfills are modelled as bulk ingestion at a single timestamp (CRDB's
AddSSTable); the schema-change itself is metadata-instant, which stands
in for CRDB's online schema change protocol — the experiments measure
steady-state DML, not schema-change throughput.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..errors import ConfigurationError, SchemaError
from ..placement.goals import SurvivalGoal, zone_config_for_home
from ..placement.provision import provision_range, reconfigure_range
from . import ast
from .catalog import (
    Catalog,
    Column,
    Database,
    DEFAULT_PARTITION,
    Index,
    REGION_COLUMN,
    Table,
    TableLocality,
)

__all__ = ["SchemaChangeEngine"]


class SchemaChangeEngine:
    """Applies DDL statements against a cluster + catalog."""

    def __init__(self, cluster, catalog: Catalog,
                 side_transport_interval_ms: Optional[float] = None,
                 closed_ts_lag_ms: Optional[float] = None):
        self.cluster = cluster
        self.catalog = catalog
        self.side_transport_interval_ms = side_transport_interval_ms
        self.closed_ts_lag_ms = closed_ts_lag_ms

    # -- databases ----------------------------------------------------------------

    def create_database(self, stmt: ast.CreateDatabase) -> Database:
        cluster_regions = self.cluster.regions()
        for region in ([stmt.primary_region] if stmt.primary_region else []) \
                + list(stmt.regions):
            if region not in cluster_regions:
                raise SchemaError(
                    f"region {region!r} has no nodes in this cluster")
        database = Database(stmt.name, primary_region=stmt.primary_region,
                            regions=stmt.regions)
        self.catalog.add_database(database)
        return database

    def add_region(self, database: Database, region: str) -> None:
        if region not in self.cluster.regions():
            raise SchemaError(f"region {region!r} has no nodes")
        database.region_enum.add(region)
        if database.primary_region is None:
            database.primary_region = region
        for table in database.tables.values():
            if table.locality.is_regional_by_row:
                for index in table.indexes:
                    self._add_partition(database, table, index, region)
            self._reconfigure_table(database, table)

    def drop_region(self, database: Database, region: str) -> None:
        if region == database.primary_region:
            raise SchemaError("cannot drop the PRIMARY region")
        if region not in database.regions:
            raise SchemaError(f"{region!r} is not a database region")
        # §2.4.1: mark READ ONLY, validate, then drop (all-or-nothing).
        database.region_enum.set_read_only(region, True)
        try:
            self._validate_region_empty(database, region)
        except SchemaError:
            database.region_enum.set_read_only(region, False)
            raise
        database.region_enum.remove(region)
        for table in database.tables.values():
            if table.locality.is_regional_by_row:
                for index in table.indexes:
                    rng = index.partitions.pop(region, None)
                    if rng is not None:
                        self._destroy_range(rng)
            self._reconfigure_table(database, table)

    def _validate_region_empty(self, database: Database,
                               region: str) -> None:
        """No REGIONAL BY ROW row may be homed in the dropped region.

        Because the region column is the partition key, this only scans
        the per-region partition, not the whole table (paper footnote 2).
        """
        for table in database.tables.values():
            if not table.locality.is_regional_by_row:
                continue
            token = table.primary_index.partitions.get(region)
            if token is None:
                continue
            for rng in token.span.ranges():
                now = rng.leaseholder_node.clock.now()
                live = rng.leaseholder_replica.store.snapshot_at(now)
                if live:
                    raise SchemaError(
                        f"cannot drop region {region!r}: table "
                        f"{table.name!r} still has {len(live)} row(s) "
                        f"there")

    def set_primary_region(self, database: Database, region: str) -> None:
        if region not in self.cluster.regions():
            raise SchemaError(f"region {region!r} has no nodes")
        if region not in database.regions:
            # Setting a primary region on a single-region database is
            # how an existing database becomes multi-region (§7.5.1).
            database.region_enum.add(region)
        database.primary_region = region
        for table in database.tables.values():
            if not table.locality.is_regional_by_row:
                self._reconfigure_table(database, table)

    def set_survival_goal(self, database: Database, goal: str) -> None:
        if goal == SurvivalGoal.REGION and len(database.regions) < 3:
            raise ConfigurationError(
                "REGION survivability requires at least 3 regions")
        if goal == SurvivalGoal.REGION and database.placement_restricted:
            raise ConfigurationError(
                "REGION survivability is incompatible with PLACEMENT "
                "RESTRICTED")
        database.survival_goal = goal
        for table in database.tables.values():
            self._reconfigure_table(database, table)

    def set_placement(self, database: Database, restricted: bool) -> None:
        if restricted and database.survival_goal == SurvivalGoal.REGION:
            raise ConfigurationError(
                "PLACEMENT RESTRICTED cannot be combined with REGION "
                "survivability (paper §3.3.4)")
        database.placement_restricted = restricted
        for table in database.tables.values():
            self._reconfigure_table(database, table)

    # -- tables ---------------------------------------------------------------------

    def create_table(self, database: Database,
                     stmt: ast.CreateTable) -> Table:
        table = Table(stmt.name, database)
        for column_def in stmt.columns:
            table.add_column(self._column_from_def(column_def))
        if not stmt.primary_key:
            raise SchemaError(
                f"table {stmt.name!r} needs a primary key")
        table.primary_key = tuple(stmt.primary_key)
        locality = self._locality_from_ast(database, stmt.locality)
        table.locality = locality
        if locality.is_regional_by_row:
            self._ensure_region_column(database, table)
        # Unique constraints (beyond the PK).
        for cols in stmt.unique_constraints:
            if tuple(cols) != table.primary_key:
                table.unique_constraints.append(tuple(cols))
        table.foreign_keys = list(stmt.foreign_keys)
        self._build_indexes(database, table)
        if any(c.on_update is not None and _is_rehome(c.on_update)
               for c in table.columns.values()):
            table.auto_rehoming = True
        database.add_table(table)
        return table

    def _column_from_def(self, column_def: ast.ColumnDef) -> Column:
        return Column(
            name=column_def.name,
            type_name=column_def.type_name,
            not_null=column_def.not_null,
            visible=column_def.visible,
            default=column_def.default,
            computed=column_def.computed,
            on_update=column_def.on_update,
            references=column_def.references,
        )

    def _locality_from_ast(self, database: Database,
                           locality_ast: Optional[Any]) -> TableLocality:
        if locality_ast is None or isinstance(
                locality_ast, ast.LocalityRegionalByTable):
            region = getattr(locality_ast, "region", None)
            if region is not None and region not in database.regions:
                raise SchemaError(f"{region!r} is not a database region")
            return TableLocality(TableLocality.REGIONAL_BY_TABLE,
                                 region=region)
        if isinstance(locality_ast, ast.LocalityGlobal):
            return TableLocality(TableLocality.GLOBAL)
        if isinstance(locality_ast, ast.LocalityRegionalByRow):
            return TableLocality(TableLocality.REGIONAL_BY_ROW,
                                 column=locality_ast.column)
        raise SchemaError(f"unsupported locality {locality_ast!r}")

    def _ensure_region_column(self, database: Database,
                              table: Table) -> None:
        """Create the hidden ``crdb_region`` column if absent (§2.3.2)."""
        name = table.locality.column or REGION_COLUMN
        table.locality.column = name
        if name in table.columns:
            return
        table.add_column(Column(
            name=name,
            type_name="crdb_internal_region",
            not_null=True,
            visible=False,
            default=ast.FuncCall(name="gateway_region"),
        ))

    def _build_indexes(self, database: Database, table: Table) -> None:
        """(Re)create all index Ranges for the table's current locality."""
        table.indexes = []
        primary = Index(
            index_id=table.allocate_index_id(),
            name=f"{table.name}@primary",
            key_columns=table.primary_key,
            unique=True,
            is_primary=True,
        )
        table.indexes.append(primary)
        for cols in table.unique_constraints:
            table.indexes.append(Index(
                index_id=table.allocate_index_id(),
                name=f"{table.name}@{'_'.join(cols)}_key",
                key_columns=tuple(cols),
                unique=True,
            ))
        for index in table.indexes:
            self._provision_index(database, table, index)

    def _zone_config(self, database: Database, table: Table,
                     home_region: str):
        # PLACEMENT RESTRICTED does not affect GLOBAL tables (§3.3.4).
        restricted = (database.placement_restricted
                      and not table.locality.is_global)
        regions = database.regions
        if not regions:
            # Single-region database: everything lives in one region.
            regions = [home_region]
        return zone_config_for_home(
            home_region, regions, database.survival_goal,
            placement_restricted=restricted)

    def _provision_index(self, database: Database, table: Table,
                         index: Index) -> None:
        if table.locality.is_regional_by_row:
            for region in database.regions:
                self._add_partition(database, table, index, region)
        else:
            home = table.home_region() or self.cluster.regions()[0]
            config = self._zone_config(database, table, home)
            rng = provision_range(
                self.cluster, config,
                global_reads=table.locality.is_global,
                name=f"{index.name}",
                side_transport_interval_ms=self.side_transport_interval_ms,
                closed_ts_lag_ms=self.closed_ts_lag_ms)
            index.partitions[DEFAULT_PARTITION] = rng

    def _add_partition(self, database: Database, table: Table,
                       index: Index, region: str) -> None:
        config = self._zone_config(database, table, region)
        rng = provision_range(
            self.cluster, config, global_reads=False,
            name=f"{index.name}@{region}",
            side_transport_interval_ms=self.side_transport_interval_ms,
            closed_ts_lag_ms=self.closed_ts_lag_ms)
        index.partitions[region] = rng

    def _reconfigure_table(self, database: Database, table: Table) -> None:
        """Re-derive zone configs for all of the table's live ranges."""
        for index in table.indexes:
            for partition, token in index.partitions.items():
                home = (partition if partition != DEFAULT_PARTITION
                        else table.home_region()
                        or self.cluster.regions()[0])
                config = self._zone_config(database, table, home)
                for rng in token.span.ranges():
                    reconfigure_range(
                        self.cluster, rng, config,
                        global_reads=table.locality.is_global,
                        closed_ts_lag_ms=self.closed_ts_lag_ms)

    def _destroy_range(self, token) -> None:
        self.cluster.keyspace.spans.pop(token.span.span_id, None)
        for rng in token.span.ranges():
            rng.destroy()
            for replica in list(rng.replicas.values()):
                replica.node.remove_replica(rng.range_id)

    # -- locality changes (§2.4.2) ----------------------------------------------------

    def alter_table_locality(self, database: Database, table: Table,
                             locality_ast: Any) -> None:
        """ALTER TABLE ... SET LOCALITY: rebuild indexes and backfill."""
        new_locality = self._locality_from_ast(database, locality_ast)
        rows = self._snapshot_rows(table)
        old_ranges = table.all_ranges()
        table.locality = new_locality
        if new_locality.is_regional_by_row:
            self._ensure_region_column(database, table)
        self._build_indexes(database, table)
        self._backfill(database, table, rows)
        for rng in old_ranges:
            self._destroy_range(rng)

    def _snapshot_rows(self, table: Table) -> List[Dict[str, Any]]:
        """Latest committed rows from the primary index.

        The snapshot horizon is pushed ``max_clock_offset`` above the
        leaseholder clock so commits timestamped by skewed-ahead
        gateways are not missed.  Schema changes here are not concurrent
        with DML (CRDB's online schema-change protocol is out of scope).
        """
        rows: List[Dict[str, Any]] = []
        offset = self.cluster.max_clock_offset
        primary = table.primary_index
        for token in primary.partitions.values():
            for rng in token.span.ranges():
                horizon = rng.leaseholder_node.clock.now().add(offset)
                snapshot = rng.leaseholder_replica.store.snapshot_at(
                    horizon)
                rows.extend(snapshot.values())
        return rows

    def _ingest_ts(self, rng):
        """Backfill timestamp: far enough in the past that any fresh read
        (whose clock may lag by up to max_clock_offset) sees the data."""
        from ..sim.clock import Timestamp
        now = rng.leaseholder_node.clock.now()
        return Timestamp(now.physical - self.cluster.max_clock_offset - 1.0)

    def _backfill(self, database: Database, table: Table,
                  rows: List[Dict[str, Any]]) -> None:
        """Write rows into the (new) indexes via bulk ingestion."""
        region_col = table.region_column
        region_column_def = (table.columns.get(region_col)
                             if region_col is not None else None)
        by_partition: Dict[str, List[Dict[str, Any]]] = {}
        for row in rows:
            row = dict(row)
            if region_col is not None and row.get(region_col) is None:
                if region_column_def is not None and \
                        region_column_def.computed is not None:
                    # Computed region columns backfill from the row.
                    from .eval import evaluate
                    row[region_col] = evaluate(
                        region_column_def.computed, row)
                else:
                    # Rows converted from a non-RBR table default to the
                    # PRIMARY region.
                    row[region_col] = database.primary_region
            partition = (row[region_col] if region_col is not None
                         else DEFAULT_PARTITION)
            by_partition.setdefault(partition, []).append(row)
        for index in table.indexes:
            for partition, rng in index.partitions.items():
                ingest_rows = by_partition.get(partition, [])
                ts = self._ingest_ts(rng)
                items: List[Tuple[Any, Any]] = []
                for row in ingest_rows:
                    if index.is_primary:
                        key = tuple(row[c] for c in table.primary_key)
                        items.append((key, row))
                    else:
                        key = tuple(row[c] for c in index.key_columns)
                        pk = tuple(row[c] for c in table.primary_key)
                        items.append((key, pk))
                if items:
                    rng.bulk_ingest(items, ts)

    def add_column(self, database: Database, table: Table,
                   column_def: ast.ColumnDef) -> None:
        column = self._column_from_def(column_def)
        table.add_column(column)
        if column.on_update is not None and _is_rehome(column.on_update):
            table.auto_rehoming = True

    def create_secondary_index(self, database: Database, table: Table,
                               stmt: ast.CreateIndex) -> Index:
        index = Index(
            index_id=table.allocate_index_id(),
            name=f"{table.name}@{stmt.name}",
            key_columns=tuple(stmt.columns),
            unique=stmt.unique,
        )
        if stmt.unique:
            table.unique_constraints.append(tuple(stmt.columns))
        table.indexes.append(index)
        self._provision_index(database, table, index)
        rows = self._snapshot_rows(table)
        # Backfill only this index.
        region_col = table.region_column
        for partition, rng in index.partitions.items():
            items = []
            for row in rows:
                if region_col is not None and \
                        row.get(region_col) != partition and \
                        partition != DEFAULT_PARTITION:
                    continue
                key = tuple(row[c] for c in index.key_columns)
                pk = tuple(row[c] for c in table.primary_key)
                items.append((key, pk))
            if items:
                rng.bulk_ingest(items, self._ingest_ts(rng))
        return index

    def drop_table(self, database: Database, name: str) -> None:
        table = database.table(name)
        for rng in table.all_ranges():
            self._destroy_range(rng)
        del database.tables[name]


def _is_rehome(expr: Any) -> bool:
    return isinstance(expr, ast.FuncCall) and expr.name == "rehome_row"
