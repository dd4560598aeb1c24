"""Locality-aware planning (paper §4).

Given a WHERE clause and the table's locality, the planner decides which
partitions a point query must visit:

1. region column (or its determinants, for computed columns) bound by
   the predicate → single-partition read;
2. lookup key unique + LOS enabled → local-first Locality Optimized
   Search;
3. otherwise → parallel fan-out.

It also plans the post-INSERT/UPDATE uniqueness checks, applying the
paper's three omission rules (§4.1): generated UUID values, constraints
that include the region column, and region columns computed from the
constrained columns.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..sql import ast
from ..sql.catalog import DEFAULT_PARTITION, Index, Table
from ..sql.eval import EvalEnv, evaluate
from .plans import (
    FanoutMultiRead,
    FanoutPointRead,
    FullScan,
    LocalityOptimizedMultiRead,
    LocalityOptimizedRead,
    MultiPointRead,
    PartitionPointRead,
    UniquenessCheck,
)

__all__ = ["Planner", "equality_bindings"]


def equality_bindings(where: Optional[Any], env: Optional[EvalEnv] = None,
                      params: Tuple = ()) -> Dict[str, Any]:
    """Extract ``col = <constant>`` bindings from a WHERE clause."""
    return _bind(ast.equalities(where), env, params)


def _bind(eq: Tuple, env: Optional[EvalEnv], params: Tuple) -> Dict[str, Any]:
    """Evaluate pre-extracted (column, expression) equality pairs."""
    return {column: evaluate(expr, None, env, params) for column, expr in eq}


class Planner:
    """Plans point queries and uniqueness checks for one gateway.

    A statement arrives pre-analysed (:class:`~repro.sql.ast.Compiled`),
    so planning evaluates its equality bindings and consults the table —
    and consults it on every execution: index choice, partition
    inference and LOS-versus-fan-out follow the catalog as it is now,
    which is why no plan is ever cached.
    """

    def __init__(self, gateway_region: Optional[str] = None,
                 env: Optional[EvalEnv] = None):
        self.gateway_region = gateway_region
        self.env = env or EvalEnv(gateway_region=gateway_region)

    # -- region inference --------------------------------------------------------

    def infer_partition(self, table: Table,
                        bindings: Dict[str, Any]) -> Optional[str]:
        """The target partition, if derivable from the bound columns."""
        region_col = table.region_column
        if region_col is None:
            return DEFAULT_PARTITION
        if region_col in bindings:
            return bindings[region_col]
        column = table.columns.get(region_col)
        if column is not None and column.computed is not None:
            needed = column.determinants
            if needed and needed.issubset(bindings.keys()):
                return evaluate(column.computed, dict(bindings), self.env)
        return None

    # -- read planning --------------------------------------------------------------

    def plan_point_query(self, table: Table, compiled: ast.Compiled,
                         params: Tuple = (),
                         limit: Optional[int] = None) -> Any:
        """Plan a SELECT/UPDATE/DELETE row lookup."""
        where = compiled.where
        if isinstance(where, ast.InList):
            in_plan = self._plan_in_list(table, where, params)
            if in_plan is not None:
                return in_plan
        bindings = _bind(compiled.eq, self.env, params)
        index = self._choose_index(table, bindings)
        if index is None:
            primary = table.primary_index
            return FullScan(index=primary,
                            partitions=list(primary.partitions.keys()),
                            predicate=where)
        key = tuple(bindings[c] for c in index.key_columns)
        if not index.partitioned:
            return PartitionPointRead(index=index,
                                      partition=DEFAULT_PARTITION, key=key)
        partition = self.infer_partition(table, bindings)
        if partition is not None:
            return PartitionPointRead(index=index, partition=partition,
                                      key=key)
        partitions = list(index.partitions.keys())
        unique_lookup = index.unique or index.is_primary
        bounded = unique_lookup or (limit is not None and limit <= 1)
        if (bounded and table.locality_optimized_search
                and self.gateway_region in partitions):
            local = self.gateway_region
            remotes = [p for p in partitions if p != local]
            return LocalityOptimizedRead(index=index, key=key,
                                         local_partition=local,
                                         remote_partitions=remotes)
        return FanoutPointRead(index=index, key=key, partitions=partitions)

    def _plan_in_list(self, table: Table, where: ast.InList,
                      params: Tuple) -> Optional[Any]:
        """§4.2: LOS generalizes to ``col IN (...)`` on a unique column —
        the result cardinality is bounded by the list length."""
        column = where.column.name
        index = None
        primary = table.primary_index
        if primary.key_columns == (column,):
            index = primary
        else:
            for candidate in table.unique_indexes():
                if candidate.key_columns == (column,):
                    index = candidate
                    break
        if index is None:
            return None
        keys = [(evaluate(v, None, self.env, params),) for v in where.values]
        if not index.partitioned:
            return MultiPointRead(index=index, partition=DEFAULT_PARTITION,
                                  keys=keys)
        # Partition inference: all keys in one region (computed column)?
        column_def = table.columns.get(table.region_column)
        if column_def is not None and column_def.computed is not None \
                and column_def.determinants == {column}:
            by_partition: Dict[str, List] = {}
            for key in keys:
                partition = evaluate(column_def.computed,
                                     {column: key[0]}, self.env)
                by_partition.setdefault(partition, []).append(key)
            if len(by_partition) == 1:
                partition, only = next(iter(by_partition.items()))
                return MultiPointRead(index=index, partition=partition,
                                      keys=only)
        partitions = list(index.partitions.keys())
        if table.locality_optimized_search and \
                self.gateway_region in partitions:
            remotes = [p for p in partitions if p != self.gateway_region]
            return LocalityOptimizedMultiRead(
                index=index, keys=keys,
                local_partition=self.gateway_region,
                remote_partitions=remotes)
        return FanoutMultiRead(index=index, keys=keys,
                               partitions=partitions)

    @staticmethod
    def _choose_index(table: Table,
                      bindings: Dict[str, Any]) -> Optional[Index]:
        """Pick an index fully bound by the equality predicates."""
        primary = table.primary_index
        if all(c in bindings for c in primary.key_columns):
            return primary
        for index in table.unique_indexes():
            if all(c in bindings for c in index.key_columns):
                return index
        return None

    # -- uniqueness-check planning (§4.1) ----------------------------------------------

    def plan_uniqueness_checks(self, table: Table, row: Dict[str, Any],
                               generated_columns: frozenset = frozenset(),
                               allow_pk: Optional[Tuple] = None,
                               changed_columns: Optional[frozenset] = None,
                               ) -> List[UniquenessCheck]:
        """Checks needed after writing ``row``.

        ``generated_columns`` are columns whose values this statement
        generated via ``gen_random_uuid()`` (rule 1: skip).
        ``changed_columns`` restricts checks to constraints whose columns
        were modified (UPDATE); None means all constraints (INSERT).
        ``allow_pk`` is the row's own primary key, tolerated as a match.
        """
        if table.suppress_uniqueness_checks:
            return []
        checks: List[UniquenessCheck] = []
        region_col = table.region_column
        region_column_def = table.columns.get(region_col)
        # Rule 3 applies when the region is computed from these columns.
        determinants = (region_column_def.determinants
                        if region_column_def is not None
                        and region_column_def.computed is not None else None)
        for index in [table.primary_index] + table.unique_indexes():
            cols = index.key_columns
            if changed_columns is not None and \
                    changed_columns.isdisjoint(cols):
                continue
            # Rule 1: generated UUID values cannot collide.
            if any(c in generated_columns for c in cols):
                continue
            key = tuple(row[c] for c in cols)
            if not index.partitioned:
                checks.append(UniquenessCheck(
                    index=index, key=key, partitions=[DEFAULT_PARTITION],
                    constraint=cols, reason="single partition",
                    allow_pk=allow_pk))
                continue
            home = row.get(region_col)
            # Rule 2: the region column is part of the constraint, so the
            # implicitly partitioned index already enforces it locally.
            if region_col in cols:
                checks.append(UniquenessCheck(
                    index=index, key=key, partitions=[home],
                    constraint=cols, reason="region in constraint",
                    allow_pk=allow_pk))
                continue
            # Rule 3: the region is computed from the constrained columns,
            # so per-partition uniqueness implies global uniqueness.
            if determinants and determinants.issubset(cols):
                checks.append(UniquenessCheck(
                    index=index, key=key, partitions=[home],
                    constraint=cols, reason="region computed from key",
                    allow_pk=allow_pk))
                continue
            # General case: one point lookup per region (§4.1).
            partitions = list(index.partitions.keys())
            checks.append(UniquenessCheck(
                index=index, key=key, partitions=partitions,
                constraint=cols, reason="global check", allow_pk=allow_pk))
        return checks
