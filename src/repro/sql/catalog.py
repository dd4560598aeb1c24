"""The SQL catalog: databases, tables, columns, indexes, partitions.

Multi-region state lives here:

* each :class:`Database` tracks its regions (the
  ``crdb_internal_region`` enum, §2.1), PRIMARY region, survivability
  goal, and placement mode;
* each :class:`Table` has a :class:`TableLocality`; REGIONAL BY ROW
  tables carry the (possibly hidden) region column;
* each :class:`Index` maps partitions to live
  :class:`~repro.kv.range.Range` objects — one partition per region for
  REGIONAL BY ROW, a single default partition otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from ..errors import SchemaError
from ..placement.goals import SurvivalGoal
from .ast import columns_referenced

__all__ = [
    "Catalog",
    "Column",
    "Database",
    "Index",
    "Table",
    "TableLocality",
    "REGION_COLUMN",
    "DEFAULT_PARTITION",
    "RegionEnum",
]

#: Name of the hidden partitioning column (paper §2.3.2).
REGION_COLUMN = "crdb_region"
#: Partition key for non-partitioned indexes.
DEFAULT_PARTITION = ""


class RegionEnum:
    """The ``crdb_internal_region`` ENUM for one database (§2.1).

    Values can be marked READ ONLY during region-drop validation
    (§2.4.1): queries may still read rows with that value but writes
    of the value are rejected.
    """

    def __init__(self, values: Optional[List[str]] = None):
        self._values: List[str] = list(values or [])
        self._read_only: set = set()

    def values(self) -> List[str]:
        return list(self._values)

    def add(self, value: str) -> None:
        if value in self._values:
            raise SchemaError(f"region {value!r} already present")
        self._values.append(value)

    def remove(self, value: str) -> None:
        if value not in self._values:
            raise SchemaError(f"region {value!r} not present")
        self._values.remove(value)
        self._read_only.discard(value)

    def set_read_only(self, value: str, read_only: bool = True) -> None:
        if value not in self._values:
            raise SchemaError(f"region {value!r} not present")
        if read_only:
            self._read_only.add(value)
        else:
            self._read_only.discard(value)

    def is_read_only(self, value: str) -> bool:
        return value in self._read_only

    def validate_writable(self, value: str) -> None:
        if value not in self._values:
            raise SchemaError(
                f"{value!r} is not a region of this database")
        if value in self._read_only:
            raise SchemaError(
                f"region {value!r} is READ ONLY (drop in progress)")


@dataclass
class TableLocality:
    """One of the three table localities (§2.3)."""

    kind: str  # 'regional_by_table' | 'regional_by_row' | 'global'
    region: Optional[str] = None   # REGIONAL BY TABLE home (None = PRIMARY)
    column: Optional[str] = None   # REGIONAL BY ROW partition column

    REGIONAL_BY_TABLE = "regional_by_table"
    REGIONAL_BY_ROW = "regional_by_row"
    GLOBAL = "global"

    @property
    def is_global(self) -> bool:
        return self.kind == self.GLOBAL

    @property
    def is_regional_by_row(self) -> bool:
        return self.kind == self.REGIONAL_BY_ROW

    @property
    def is_regional_by_table(self) -> bool:
        return self.kind == self.REGIONAL_BY_TABLE


@dataclass
class Column:
    name: str
    type_name: str
    not_null: bool = False
    visible: bool = True
    default: Optional[Any] = None     # expression AST
    computed: Optional[Any] = None    # expression AST (STORED)
    on_update: Optional[Any] = None   # expression AST
    references: Optional[str] = None

    @cached_property
    def determinants(self) -> FrozenSet[str]:
        """The columns a computed column is derived from (``computed`` is
        fixed at creation, so this is worked out once)."""
        return frozenset(columns_referenced(self.computed))


@dataclass
class Index:
    """A (possibly partitioned) index.  ``partitions`` maps a partition
    name (region, or DEFAULT_PARTITION) to its Range."""

    index_id: int
    name: str
    key_columns: Tuple[str, ...]
    unique: bool = False
    is_primary: bool = False
    partitions: Dict[str, Any] = field(default_factory=dict)

    def partition_for(self, region: Optional[str]):
        if DEFAULT_PARTITION in self.partitions:
            return self.partitions[DEFAULT_PARTITION]
        if region is None or region not in self.partitions:
            raise SchemaError(
                f"index {self.name!r} has no partition for {region!r}")
        return self.partitions[region]

    @property
    def partitioned(self) -> bool:
        return DEFAULT_PARTITION not in self.partitions


class Table:
    """A table: columns, constraints, locality, and its index ranges."""

    def __init__(self, name: str, database: "Database"):
        self.name = name
        self.database = database
        self.columns: Dict[str, Column] = {}
        self.primary_key: Tuple[str, ...] = ()
        #: Unique constraints beyond the primary key: tuples of columns.
        self.unique_constraints: List[Tuple[str, ...]] = []
        #: Table-level foreign keys (ast.ForeignKeyDef), §2.3.2.
        self.foreign_keys: List[Any] = []
        self.locality = TableLocality(TableLocality.REGIONAL_BY_TABLE)
        self.indexes: List[Index] = []
        self._next_index_id = 1
        #: Auto-rehoming (ON UPDATE rehome_row()) enabled?
        self.auto_rehoming = False
        #: Locality Optimized Search enabled (ablation switch)?
        self.locality_optimized_search = True
        #: Skip uniqueness checks entirely (ablation / UUID-only tables).
        self.suppress_uniqueness_checks = False

    # -- structural helpers -------------------------------------------------------

    def add_column(self, column: Column) -> None:
        if column.name in self.columns:
            raise SchemaError(
                f"column {column.name!r} already exists in {self.name!r}")
        self.columns[column.name] = column

    def column(self, name: str) -> Column:
        try:
            return self.columns[name]
        except KeyError:
            raise SchemaError(
                f"no column {name!r} in table {self.name!r}") from None

    def visible_columns(self) -> List[str]:
        return [c.name for c in self.columns.values() if c.visible]

    def allocate_index_id(self) -> int:
        index_id = self._next_index_id
        self._next_index_id += 1
        return index_id

    @property
    def primary_index(self) -> Index:
        for index in self.indexes:
            if index.is_primary:
                return index
        raise SchemaError(f"table {self.name!r} has no primary index")

    def unique_indexes(self) -> List[Index]:
        return [i for i in self.indexes if i.unique and not i.is_primary]

    @property
    def region_column(self) -> Optional[str]:
        if self.locality.is_regional_by_row:
            return self.locality.column or REGION_COLUMN
        return None

    def all_ranges(self) -> List[Any]:
        """Every *live* range backing this table.

        Partitions hold routing tokens — the provision-time Range,
        whose span's descriptor list grows and shrinks as the
        rebalancing queue splits and merges — so enumeration must go
        through the current descriptors, not the token list.
        """
        ranges = []
        for index in self.indexes:
            for token in index.partitions.values():
                ranges.extend(token.span.ranges())
        return ranges

    def home_region(self) -> Optional[str]:
        """The leaseholder region for non-RBR tables (§3.3.1)."""
        if self.locality.is_global:
            return self.database.primary_region
        if self.locality.is_regional_by_table:
            return self.locality.region or self.database.primary_region
        return None


class Database:
    """A multi-region database (§2.1–2.2)."""

    def __init__(self, name: str, primary_region: Optional[str] = None,
                 regions: Optional[List[str]] = None):
        self.name = name
        self.primary_region = primary_region
        all_regions = []
        if primary_region:
            all_regions.append(primary_region)
        for region in regions or []:
            if region not in all_regions:
                all_regions.append(region)
        self.region_enum = RegionEnum(all_regions)
        self.survival_goal = SurvivalGoal.ZONE
        self.placement_restricted = False
        self.tables: Dict[str, Table] = {}

    @property
    def regions(self) -> List[str]:
        return self.region_enum.values()

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise SchemaError(
                f"no table {name!r} in database {self.name!r}") from None

    def add_table(self, table: Table) -> None:
        if table.name in self.tables:
            raise SchemaError(f"table {table.name!r} already exists")
        self.tables[table.name] = table


class Catalog:
    """All databases in the cluster."""

    def __init__(self):
        self.databases: Dict[str, Database] = {}

    def database(self, name: str) -> Database:
        try:
            return self.databases[name]
        except KeyError:
            raise SchemaError(f"no database {name!r}") from None

    def add_database(self, database: Database) -> None:
        if database.name in self.databases:
            raise SchemaError(f"database {database.name!r} already exists")
        self.databases[database.name] = database
