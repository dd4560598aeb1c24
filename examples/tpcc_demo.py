#!/usr/bin/env python
"""Multi-region TPC-C in miniature (paper §7.4).

Deploys the paper's TPC-C adaptation — ``item`` GLOBAL, everything else
REGIONAL BY ROW with the region computed from the warehouse id — across
three regions, runs the transaction mix from terminals in every region,
and prints per-region latency summaries.

Run:  python examples/tpcc_demo.py
"""

from repro.harness.runner import build_engine, run_clients, sessions_per_region
from repro.obs.report import LatencyRecorder, ResultTable
from repro.workloads.tpcc import TPCCOptions, TPCCWorkload

REGIONS = ["us-east1", "europe-west2", "asia-northeast1"]


def main() -> None:
    engine = build_engine(REGIONS)
    options = TPCCOptions(warehouses_per_region=2,
                          districts_per_warehouse=5,
                          customers_per_district=10, items=50)
    workload = TPCCWorkload(engine, REGIONS, options)
    workload.setup()
    workload.load()
    print(f"loaded {options.warehouses_per_region * len(REGIONS)} "
          f"warehouses across {len(REGIONS)} regions "
          f"({len(workload.schema_ddl())} DDL statements)")

    recorder = LatencyRecorder()
    sessions = sessions_per_region(engine, REGIONS, 2, "tpcc")
    clients = [
        (lambda s=s, i=i: workload.client(s, recorder, 25, i))
        for i, s in enumerate(sessions)
    ]
    run_clients(engine, clients, recorder, settle_ms=4000.0)

    table = ResultTable("TPC-C latency by transaction and region (ms)",
                        ["txn", "region", "count", "p50", "p90"])
    for label in recorder.labels():
        kind, region = label
        summary = recorder.summary(*label)
        table.add_row(kind, region, summary.count, summary.p50, summary.p90)
    table.print()

    duration_min = (recorder.finished_at - recorder.started_at) / 60_000.0
    print(f"\nnew-order throughput: "
          f"{recorder.count('new_order') / duration_min:.0f} tpmC "
          f"across {options.warehouses_per_region * len(REGIONS)} warehouses")
    stats = engine.coordinator.stats
    print(f"transactions committed: {stats.committed}, "
          f"retries: {stats.aborted_retries}, "
          f"uncertainty restarts: {stats.uncertainty_restarts}")


if __name__ == "__main__":
    main()
