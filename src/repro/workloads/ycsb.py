"""YCSB workloads (paper §7.1–§7.3).

Variants used by the evaluation:

* **A** — 1:1 reads/updates, Zipf keys (Fig 3 and Fig 5);
* **B** — 95/5 reads/updates, uniform keys (Fig 4a, 4c);
* **D** — 95/5 reads/inserts, uniform keys (Fig 4b).

Table *modes* select the schema/optimizer configuration under test:

=============== ==============================================================
``default``     REGIONAL BY ROW, hidden region column, LOS on (Fig 4 Default)
``unoptimized`` REGIONAL BY ROW without LOS (Fig 4a Unoptimized)
``rehoming``    REGIONAL BY ROW + ON UPDATE rehome_row() (Fig 4a/4c Rehoming)
``computed``    region computed from the key (Fig 4b Computed)
``baseline``    manual partitioning: region derived from the key client-side
                and pinned in every WHERE clause; only per-partition
                uniqueness (Fig 4 Baseline)
``global``      LOCALITY GLOBAL (Fig 3/5 Global)
``regional_table`` REGIONAL BY TABLE IN PRIMARY REGION (Fig 3/5 Regional)
=============== ==============================================================

Clients run closed loops inside the simulation; latencies land in a
:class:`~repro.obs.report.LatencyRecorder` keyed by
``(op, local|remote, client_region)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional

from ..obs.report import LatencyRecorder
from ..sim.clock import Timestamp
from ..sql import ast
from ..sql.catalog import DEFAULT_PARTITION
from ..sql.session import Session
from .zipf import UniformGenerator, ZipfGenerator

__all__ = ["YCSBOptions", "YCSBWorkload", "YCSB_MODES"]

YCSB_MODES = ("default", "unoptimized", "rehoming", "computed", "baseline",
              "global", "regional_table")

_TABLE = "usertable"


@dataclass
class YCSBOptions:
    variant: str = "B"                  # 'A' | 'B' | 'D'
    mode: str = "default"
    distribution: str = "uniform"       # 'uniform' | 'zipf'
    keys_per_region: int = 1000
    #: Fraction of operations touching keys homed in the client's region.
    locality_of_access: float = 1.0
    #: Remote accesses hit a shared contended slice of this many keys
    #: (Fig 4c); 0 means remote keys are spread uniformly.
    contended_keys: int = 0
    #: Region (index) owning the contended slice.
    contended_region_index: int = 0
    #: Remote accesses come from a small per-client disjoint pool of this
    #: many keys (Fig 4a: clients revisit their remote rows, letting
    #: auto-rehoming pay off); 0 means remote keys are spread uniformly.
    remote_pool_keys: int = 0
    #: Serve reads with bounded staleness of this many ms (Regional
    #: (Stale) in Fig 3/5); None means fresh reads.
    read_staleness_ms: Optional[float] = None
    seed: int = 0

    @property
    def read_fraction(self) -> float:
        return {"A": 0.5, "B": 0.95, "D": 0.95}[self.variant]

    @property
    def write_is_insert(self) -> bool:
        return self.variant == "D"


class YCSBWorkload:
    """Schema setup, bulk load, and client loops for one YCSB config."""

    def __init__(self, engine, regions: List[str], options: YCSBOptions,
                 database: str = "ycsb"):
        self.engine = engine
        self.regions = list(regions)
        self.options = options
        self.database = database
        self._region_index = {r: i for i, r in enumerate(self.regions)}
        self._insert_counter = 0

    # -- schema -------------------------------------------------------------------

    def setup(self) -> Session:
        """Create the database and the usertable for the chosen mode."""
        options = self.options
        session = self.engine.connect(self.regions[0])
        others = ", ".join(f'"{r}"' for r in self.regions[1:])
        session.execute(
            f'CREATE DATABASE {self.database} PRIMARY REGION '
            f'"{self.regions[0]}"' + (f" REGIONS {others}" if others else ""))
        mode = options.mode
        if mode == "global":
            session.execute(
                f"CREATE TABLE {_TABLE} (id int PRIMARY KEY, "
                f"field0 string) LOCALITY GLOBAL")
        elif mode == "regional_table":
            session.execute(
                f"CREATE TABLE {_TABLE} (id int PRIMARY KEY, "
                f"field0 string) LOCALITY REGIONAL BY TABLE IN "
                f"PRIMARY REGION")
        elif mode in ("computed", "baseline"):
            session.execute(
                f"CREATE TABLE {_TABLE} (id int PRIMARY KEY, "
                f"field0 string, crdb_region crdb_internal_region AS "
                f"({self._region_case_expr()}) STORED) "
                f"LOCALITY REGIONAL BY ROW")
        elif mode == "rehoming":
            session.execute(
                f"CREATE TABLE {_TABLE} (id int PRIMARY KEY, "
                f"field0 string, crdb_region crdb_internal_region "
                f"NOT VISIBLE NOT NULL DEFAULT gateway_region() "
                f"ON UPDATE rehome_row()) LOCALITY REGIONAL BY ROW")
        else:  # default / unoptimized
            session.execute(
                f"CREATE TABLE {_TABLE} (id int PRIMARY KEY, "
                f"field0 string) LOCALITY REGIONAL BY ROW")
        table = self._table()
        if mode == "unoptimized":
            table.locality_optimized_search = False
        if mode == "baseline":
            # Manual partitioning cannot enforce global uniqueness (§4.1).
            table.suppress_uniqueness_checks = True
        return session

    def _region_case_expr(self) -> str:
        """crdb_region computed from the key (modular mapping, so newly
        inserted keys can land in any region's class)."""
        n = len(self.regions)
        whens = []
        for i, region in enumerate(self.regions[:-1]):
            whens.append(f"WHEN mod(id, {n}) = {i} THEN '{region}'")
        return (f"CASE {' '.join(whens)} ELSE '{self.regions[-1]}' END")

    @property
    def _modular_keys(self) -> bool:
        """Computed/baseline modes derive the region from the key value."""
        return self.options.mode in ("computed", "baseline")

    def _make_key(self, region_index: int, ordinal: int) -> int:
        if self._modular_keys:
            return ordinal * len(self.regions) + region_index
        return region_index * self.options.keys_per_region + ordinal

    def _key_region_index(self, key: int) -> int:
        if self._modular_keys:
            return key % len(self.regions)
        return min(key // self.options.keys_per_region,
                   len(self.regions) - 1)

    def _table(self):
        return self.engine.catalog.database(self.database).table(_TABLE)

    # -- data ------------------------------------------------------------------------

    def load(self) -> None:
        """Bulk-ingest keys_per_region rows per region (CRDB IMPORT)."""
        table = self._table()
        keys = self.options.keys_per_region
        region_col = table.region_column
        offset = self.engine.cluster.max_clock_offset + 1.0
        if region_col is None:
            rng = table.primary_index.partitions[DEFAULT_PARTITION]
            ts = Timestamp(rng.leaseholder_node.clock.now().physical - offset)
            items = []
            for region_index in range(len(self.regions)):
                for i in range(keys):
                    key = self._make_key(region_index, i)
                    items.append(((key,), self._row(key, None)))
            rng.bulk_ingest(items, ts)
            return
        for region_index, region in enumerate(self.regions):
            rng = table.primary_index.partitions[region]
            ts = Timestamp(rng.leaseholder_node.clock.now().physical - offset)
            items = []
            for i in range(keys):
                key = self._make_key(region_index, i)
                items.append(((key,), self._row(key, region)))
            rng.bulk_ingest(items, ts)

    def _row(self, key: int, region: Optional[str]) -> Dict[str, Any]:
        row = {"id": key, "field0": f"value-{key}"}
        if region is not None:
            row["crdb_region"] = region
        return row

    def total_keys(self) -> int:
        return self.options.keys_per_region * len(self.regions)

    # -- key choice ---------------------------------------------------------------------

    def _key_chooser(self, client_region: str, client_seed: int,
                     client_id: int):
        options = self.options
        keys = options.keys_per_region
        n_regions = len(self.regions)
        local_index = self._region_index[client_region]
        rng = random.Random(client_seed)
        if options.distribution == "zipf":
            sampler = ZipfGenerator(self.total_keys(), seed=client_seed)
        else:
            sampler = UniformGenerator(keys, seed=client_seed)
        remote_targets = [i for i in range(n_regions) if i != local_index]
        # Per-client disjoint remote window (Fig 4a revisited pools).
        pool_keys = self.remote_pool(client_region, client_id)

        def choose() -> tuple:
            """Returns (key, is_local) — locality by *original* home."""
            if options.distribution == "zipf":
                # Fig 3/5: one shared keyspace, no locality split.
                return sampler.next(), True
            if rng.random() < options.locality_of_access:
                return self._make_key(local_index, sampler.next()), True
            if options.contended_keys:
                # Fig 4c: every contender hammers one shared slice.
                target = options.contended_region_index
                key = self._make_key(target,
                                     rng.randrange(options.contended_keys))
                return key, target == local_index
            if pool_keys:
                return rng.choice(pool_keys), False
            target = rng.choice(remote_targets)
            return self._make_key(target, sampler.next()), False

        return choose

    def remote_pool(self, client_region: str, client_id: int) -> List[int]:
        """The client's disjoint remote key pool (empty if unused)."""
        pool = self.options.remote_pool_keys
        if not pool:
            return []
        keys = self.options.keys_per_region
        local_index = self._region_index[client_region]
        remote_targets = [i for i in range(len(self.regions))
                          if i != local_index]
        if not remote_targets:
            return []
        pool_region = remote_targets[client_id % len(remote_targets)]
        pool_start = (client_id * pool) % max(keys - pool, 1)
        return [self._make_key(pool_region, pool_start + j)
                for j in range(pool)]

    def contended_pool(self) -> List[int]:
        """The shared contended key slice (Fig 4c)."""
        options = self.options
        return [self._make_key(options.contended_region_index, j)
                for j in range(options.contended_keys)]

    def _region_of_key(self, key: int) -> str:
        return self.regions[self._key_region_index(key)]

    # -- statements -----------------------------------------------------------------------

    def _select_stmt(self, key: int) -> ast.Select:
        where: Any = ast.Comparison("=", ast.ColumnRef("id"),
                                    ast.Literal(key))
        if self.options.mode == "baseline":
            where = ast.LogicalAnd(parts=(
                where,
                ast.Comparison("=", ast.ColumnRef("crdb_region"),
                               ast.Literal(self._region_of_key(key)))))
        as_of = None
        if self.options.read_staleness_ms is not None:
            as_of = ast.AsOf(kind="max_staleness",
                             value=ast.Literal(
                                 f"{self.options.read_staleness_ms}ms"))
        return ast.Select(table=_TABLE, columns=["field0"], where=where,
                          as_of=as_of)

    def _update_stmt(self, key: int, value: str) -> ast.Update:
        where: Any = ast.Comparison("=", ast.ColumnRef("id"),
                                    ast.Literal(key))
        if self.options.mode == "baseline":
            where = ast.LogicalAnd(parts=(
                where,
                ast.Comparison("=", ast.ColumnRef("crdb_region"),
                               ast.Literal(self._region_of_key(key)))))
        return ast.Update(table=_TABLE,
                          assignments=[("field0", ast.Literal(value))],
                          where=where)

    def _insert_stmt(self, key: int) -> ast.Insert:
        return ast.Insert(table=_TABLE, columns=["id", "field0"],
                          rows=[[ast.Literal(key),
                                 ast.Literal(f"value-{key}")]])

    def next_insert_key(self, client_region: str, client_id: int) -> int:
        """Fresh keys for YCSB-D inserts, unique across clients and homed
        in the inserting client's region class (100% locality, Fig 4b)."""
        self._insert_counter += 1
        region_index = self._region_index[client_region]
        if self._modular_keys:
            ordinal = self.options.keys_per_region + self._insert_counter
            return self._make_key(region_index, ordinal)
        # Slice layout: new keys live beyond every loaded slice (the
        # region is taken from the gateway, not the key value).
        return (self.total_keys() + self._insert_counter * len(self.regions)
                + region_index)

    # -- the client loop --------------------------------------------------------------------

    def client(self, session: Session, recorder: LatencyRecorder,
               n_ops: int, client_id: int, warmup_ops: int = 0,
               prehome_keys: Optional[List[int]] = None) -> Generator:
        """A closed-loop client issuing ``n_ops`` recorded operations.

        ``warmup_ops`` operations run first without recording, and
        ``prehome_keys`` are updated once (also unrecorded) before
        measurement: together they bring the system to the steady state
        a 10-minute paper run reaches (rehomed rows, warm closed
        timestamps).
        """
        options = self.options
        sim = self.engine.cluster.sim
        region = session.region
        choose = self._key_chooser(region, options.seed * 10007 + client_id,
                                   client_id)
        op_rng = random.Random(options.seed * 31 + client_id)
        for key in prehome_keys or []:
            stmt = self._update_stmt(key, f"warm-{client_id}")
            yield from session.execute_stmt_co(stmt)
        for i in range(warmup_ops + n_ops):
            recording = i >= warmup_ops
            is_read = op_rng.random() < options.read_fraction
            if is_read:
                key, local = choose()
                stmt = self._select_stmt(key)
                label = ("read", "local" if local else "remote", region)
            elif options.write_is_insert:
                key = self.next_insert_key(region, client_id)
                stmt = self._insert_stmt(key)
                label = ("insert", "local", region)
            else:
                key, local = choose()
                stmt = self._update_stmt(key, f"updated-{client_id}-{i}")
                label = ("update", "local" if local else "remote", region)
            start = sim.now
            yield from session.execute_stmt_co(stmt)
            if recording:
                recorder.record(label, sim.now - start)
        return None
