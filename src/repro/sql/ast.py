"""AST nodes for the multi-region SQL dialect.

The dialect covers every statement the paper shows (§2) plus the DML the
benchmarks need.  Expressions are a small tree: literals, column
references, function calls, CASE WHEN, and boolean comparisons.

DML statements are executed through their :class:`Compiled` form — the
expression trees plus the analysis of them that does not depend on the
catalog.  ``parse`` derives it once per statement *shape* (the text with
its literals cut out): the trees of a shape hold a :class:`Param` where a
literal stood, and every statement of that shape shares the one
``Compiled`` and carries only its own literal values in ``params``.  A
statement built by hand holds literals directly, has no ``params``, and
derives its ``Compiled`` from its own fields the first time it runs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, FrozenSet, List, Optional, Set, Tuple

__all__ = [
    # expressions
    "Literal", "Param", "ColumnRef", "FuncCall", "CaseWhen", "Comparison",
    "LogicalAnd", "InList",
    # statement shapes
    "Compiled", "bind", "columns_referenced", "equalities",
    # locality
    "LocalityGlobal", "LocalityRegionalByTable", "LocalityRegionalByRow",
    # DDL
    "ColumnDef", "CreateDatabase", "AlterDatabaseAddRegion",
    "AlterDatabaseDropRegion", "AlterDatabaseSurvive",
    "AlterDatabasePlacement", "AlterDatabaseSetPrimaryRegion",
    "CreateTable", "AlterTableSetLocality", "AlterTableAddColumn",
    "ForeignKeyDef",
    "CreateIndex", "DropTable",
    # DML / queries
    "Insert", "Select", "Update", "Delete", "ShowRegions", "UseDatabase",
    "AsOf", "Explain", "ShowRanges", "ShowZoneConfiguration",
    "Begin", "Commit", "Rollback",
]


# -- expressions ---------------------------------------------------------------


@dataclass(frozen=True)
class Literal:
    value: Any


@dataclass(frozen=True)
class Param:
    """A literal's position in a statement shape: evaluates to
    ``params[slot]`` of the statement being executed."""
    slot: int


@dataclass(frozen=True)
class ColumnRef:
    name: str


@dataclass(frozen=True)
class FuncCall:
    name: str
    args: Tuple = ()


@dataclass(frozen=True)
class CaseWhen:
    """CASE WHEN <cond> THEN <expr> [WHEN ...] ELSE <expr> END."""
    whens: Tuple  # tuple of (condition, result) expression pairs
    default: Any  # expression


@dataclass(frozen=True)
class Comparison:
    op: str  # '=', '<>', '<', '<=', '>', '>='
    left: Any
    right: Any


@dataclass(frozen=True)
class LogicalAnd:
    parts: Tuple


@dataclass(frozen=True)
class InList:
    column: ColumnRef
    values: Tuple


# -- table localities (§2.3) ---------------------------------------------------


@dataclass(frozen=True)
class LocalityGlobal:
    pass


@dataclass(frozen=True)
class LocalityRegionalByTable:
    region: Optional[str] = None  # None means the PRIMARY region


@dataclass(frozen=True)
class LocalityRegionalByRow:
    column: Optional[str] = None  # None means the hidden crdb_region


# -- DDL -------------------------------------------------------------------------


@dataclass
class ColumnDef:
    name: str
    type_name: str
    primary_key: bool = False
    not_null: bool = False
    unique: bool = False
    visible: bool = True
    default: Optional[Any] = None       # expression
    computed: Optional[Any] = None      # AS (expr) STORED
    on_update: Optional[Any] = None     # ON UPDATE expr
    references: Optional[str] = None    # REFERENCES table


@dataclass
class CreateDatabase:
    name: str
    primary_region: Optional[str] = None
    regions: List[str] = field(default_factory=list)


@dataclass
class AlterDatabaseAddRegion:
    database: str
    region: str


@dataclass
class AlterDatabaseDropRegion:
    database: str
    region: str


@dataclass
class AlterDatabaseSurvive:
    database: str
    goal: str  # 'zone' | 'region'


@dataclass
class AlterDatabasePlacement:
    database: str
    restricted: bool


@dataclass
class AlterDatabaseSetPrimaryRegion:
    database: str
    region: str


@dataclass(frozen=True)
class ForeignKeyDef:
    """Table-level FOREIGN KEY (cols) REFERENCES parent (cols) with an
    optional ON UPDATE CASCADE (collocated child rows, §2.3.2)."""
    columns: Tuple[str, ...]
    parent: str
    parent_columns: Tuple[str, ...] = ()
    on_update_cascade: bool = False

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "parent_columns",
                           tuple(self.parent_columns))


@dataclass
class CreateTable:
    name: str
    columns: List[ColumnDef]
    primary_key: List[str] = field(default_factory=list)
    unique_constraints: List[List[str]] = field(default_factory=list)
    foreign_keys: List["ForeignKeyDef"] = field(default_factory=list)
    locality: Optional[Any] = None


@dataclass
class AlterTableSetLocality:
    table: str
    locality: Any


@dataclass
class AlterTableAddColumn:
    table: str
    column: ColumnDef


@dataclass
class CreateIndex:
    name: str
    table: str
    columns: List[str]
    unique: bool = False


@dataclass
class DropTable:
    name: str


# -- statement shapes ----------------------------------------------------------------


def columns_referenced(expr: Any) -> Set[str]:
    """All column names an expression depends on (for planning)."""
    if isinstance(expr, ColumnRef):
        return {expr.name}
    if isinstance(expr, FuncCall):
        out: Set[str] = set()
        for arg in expr.args:
            out |= columns_referenced(arg)
        return out
    if isinstance(expr, CaseWhen):
        out = columns_referenced(expr.default)
        for condition, result in expr.whens:
            out |= columns_referenced(condition)
            out |= columns_referenced(result)
        return out
    if isinstance(expr, Comparison):
        return columns_referenced(expr.left) | columns_referenced(expr.right)
    if isinstance(expr, LogicalAnd):
        out = set()
        for part in expr.parts:
            out |= columns_referenced(part)
        return out
    if isinstance(expr, InList):
        out = columns_referenced(expr.column)
        for value in expr.values:
            out |= columns_referenced(value)
        return out
    return set()


def _collect_equalities(expr: Any, found: List[Tuple[str, Any]]) -> None:
    if isinstance(expr, LogicalAnd):
        for part in expr.parts:
            _collect_equalities(part, found)
    elif isinstance(expr, Comparison) and expr.op == "=":
        left, right = expr.left, expr.right
        if isinstance(left, ColumnRef) and not columns_referenced(right):
            found.append((left.name, right))
        elif isinstance(right, ColumnRef) and not columns_referenced(left):
            found.append((right.name, left))


def equalities(where: Optional[Any]) -> Tuple[Tuple[str, Any], ...]:
    """The ``column = <column-free expression>`` conjuncts of a WHERE
    clause, as (column, expression) pairs in clause order."""
    found: List[Tuple[str, Any]] = []
    _collect_equalities(where, found)
    return tuple(found)


def bind(node: Any, params: Tuple) -> Any:
    """A shape's expression tree with literals back in place: every
    :class:`Param` becomes the :class:`Literal` of its value."""
    if isinstance(node, Param):
        return Literal(params[node.slot])
    if isinstance(node, (list, tuple)):
        return type(node)(bind(item, params) for item in node)
    if dataclasses.is_dataclass(node):
        return type(node)(*(bind(getattr(node, f.name), params)
                            for f in dataclasses.fields(node)))
    return node


class Compiled:
    """What executing a DML statement reads besides the catalog: its
    expression trees and the facts the planner used to re-derive from
    them per execution.  Immutable; one per statement shape."""

    __slots__ = ("where", "eq", "as_of", "assignments", "assigned", "rows")

    def __init__(self, where: Optional[Any] = None,
                 as_of: Optional["AsOf"] = None,
                 assignments: Any = (), rows: Any = ()):
        self.where = where
        #: ``equalities(where)``: what the planner binds index keys and
        #: the region column from.
        self.eq = equalities(where)
        self.as_of = as_of
        self.assignments = assignments
        self.assigned: FrozenSet[str] = frozenset(
            name for name, _expr in assignments)
        self.rows = rows


def _dml(*literal_fields: str) -> Callable[[type], type]:
    """Class decorator of the four DML statements.

    Adds ``compiled`` (derived from the statement's own fields on first
    use) and makes the named literal-bearing fields derivable the other
    way round: a statement that ``parse`` bound to a shape stores
    ``compiled`` and ``params`` instead of those fields, and reading one
    builds it from the two.  Both are ``cached_property``: a value in the
    instance ``__dict__`` wins, so neither derivation runs for a
    statement that stores the attribute.
    """
    def install(name: str, derive: Callable[[Any], Any], cls: type) -> None:
        prop = cached_property(derive)
        prop.__set_name__(cls, name)
        setattr(cls, name, prop)

    def decorate(cls: type) -> type:
        cls = dataclass(cls)
        cls.literal_fields = literal_fields
        install("compiled", lambda stmt: Compiled(**{
            name: getattr(stmt, name) for name in literal_fields}), cls)
        for name in literal_fields:
            install(name, lambda stmt, name=name: bind(
                getattr(stmt.compiled, name), stmt.params), cls)
        return cls
    return decorate


# -- DML / queries ------------------------------------------------------------------


@dataclass(frozen=True)
class AsOf:
    """AS OF SYSTEM TIME clause: exact or bounded staleness (§5.3)."""
    kind: str       # 'exact' | 'min_timestamp' | 'max_staleness'
    value: Any      # interval string like '-30s' or a timestamp literal


@_dml("rows")
class Insert:
    table: str
    columns: List[str]
    rows: List[List[Any]]  # expression lists
    #: Literal values of a statement bound to a shape (see module doc).
    params: Tuple = field(default=(), compare=False, repr=False)


@_dml("where", "as_of")
class Select:
    table: str
    columns: List[str]          # ['*'] for all visible columns
    where: Optional[Any] = None
    as_of: Optional[AsOf] = None
    limit: Optional[int] = None
    #: SELECT ... FOR UPDATE acquires write locks on matched rows,
    #: avoiding write-too-old retries in read-modify-write transactions.
    for_update: bool = False
    params: Tuple = field(default=(), compare=False, repr=False)


@_dml("assignments", "where")
class Update:
    table: str
    assignments: List[Tuple[str, Any]]
    where: Optional[Any] = None
    params: Tuple = field(default=(), compare=False, repr=False)


@_dml("where")
class Delete:
    table: str
    where: Optional[Any] = None
    params: Tuple = field(default=(), compare=False, repr=False)


@dataclass
class ShowRegions:
    from_database: Optional[str] = None


@dataclass
class UseDatabase:
    name: str


@dataclass
class Explain:
    """EXPLAIN <statement>: show the locality-aware plan (§4)."""
    statement: Any


@dataclass
class Begin:
    """BEGIN: open an explicit transaction on the session."""


@dataclass
class Commit:
    """COMMIT the session's open transaction."""


@dataclass
class Rollback:
    """ROLLBACK the session's open transaction."""


@dataclass
class ShowRanges:
    """SHOW RANGES FROM TABLE t: replica/leaseholder placement."""
    table: str


@dataclass
class ShowZoneConfiguration:
    """SHOW ZONE CONFIGURATION FOR TABLE t (§3.2, Listing 1)."""
    table: str
