"""Fig 6: multi-region TPC-C scalability (§7.4).

TPC-C with ``item`` GLOBAL and the other tables REGIONAL BY ROW
(region computed from the warehouse id), run at increasing region
counts.  The paper uses 4, 10, and 26 GCP regions and reports
throughput scaling linearly (>97% efficiency) plus per-region p50/p90
latencies showing requests stay in-region; it also checks PLACEMENT
RESTRICTED does not change latency.

Region counts beyond Table 1's five use a synthetic ring RTT matrix
spanning the same 20–280 ms envelope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ...obs.report import LatencyRecorder, Summary, ResultTable
from ...sim.network import synthetic_rtt_matrix
from ...workloads.tpcc import TPCCOptions, TPCCWorkload
from ..runner import build_engine, run_clients, sessions_per_region

__all__ = ["Fig6Result", "run_fig6", "run_fig6_placement_comparison"]


def _region_names(count: int) -> List[str]:
    return [f"region-{i:02d}" for i in range(count)]


@dataclass
class Fig6Point:
    regions: int
    warehouses: int
    new_orders: int
    duration_ms: float
    recorder: LatencyRecorder

    @property
    def tpmc(self) -> float:
        """New-order transactions per simulated minute."""
        if self.duration_ms <= 0:
            return 0.0
        return self.new_orders / (self.duration_ms / 60_000.0)

    @property
    def tpmc_per_warehouse(self) -> float:
        return self.tpmc / self.warehouses if self.warehouses else 0.0


@dataclass
class Fig6Result:
    points: List[Fig6Point]

    def efficiency(self, point: Fig6Point) -> float:
        """Per-warehouse throughput relative to the smallest cluster."""
        base = self.points[0].tpmc_per_warehouse
        if base <= 0:
            return 0.0
        return point.tpmc_per_warehouse / base

    def table(self) -> ResultTable:
        table = ResultTable(
            "Fig 6: TPC-C scalability",
            ["regions", "warehouses", "tpmC", "tpmC/wh", "efficiency",
             "p50 range (ms)", "p90 range (ms)"])
        for point in self.points:
            p50s, p90s = [], []
            for label in point.recorder.labels():
                if label[0] != "new_order":
                    continue
                summary = Summary(point.recorder.samples(*label))
                if summary.count:
                    p50s.append(summary.p50)
                    p90s.append(summary.p90)
            table.add_row(
                point.regions, point.warehouses, point.tpmc,
                point.tpmc_per_warehouse,
                f"{self.efficiency(point) * 100:.0f}%",
                f"{min(p50s):.1f}-{max(p50s):.1f}" if p50s else "-",
                f"{min(p90s):.1f}-{max(p90s):.1f}" if p90s else "-")
        return table


def _run_point(n_regions: int, clients_per_region: int,
               txns_per_client: int, options: TPCCOptions,
               placement_restricted: bool, seed: int,
               side_transport_interval_ms: float = 1000.0) -> Fig6Point:
    regions = _region_names(n_regions)
    matrix = synthetic_rtt_matrix(regions, seed=seed)
    engine = build_engine(
        regions, rtt_matrix=matrix, seed=seed,
        side_transport_interval_ms=side_transport_interval_ms)
    workload = TPCCWorkload(engine, regions, options)
    session = workload.setup()
    if placement_restricted:
        session.execute(f"ALTER DATABASE {workload.database} "
                        f"PLACEMENT RESTRICTED")
    workload.load()
    recorder = LatencyRecorder(engine.cluster.sim.obs.registry)
    sessions = sessions_per_region(engine, regions, clients_per_region,
                                   workload.database)
    clients = [
        (lambda s=s, i=i: workload.client(s, recorder, txns_per_client, i))
        for i, s in enumerate(sessions)
    ]
    # Warm-up must cover the GLOBAL item table's closed-timestamp lead
    # (~side-transport interval + lead time) so follower reads serve.
    run_clients(engine, clients, recorder,
                settle_ms=3.0 * side_transport_interval_ms + 2000.0)
    new_orders = recorder.count("new_order")
    duration = (recorder.finished_at or 0) - (recorder.started_at or 0)
    return Fig6Point(
        regions=n_regions,
        warehouses=options.warehouses_per_region * n_regions,
        new_orders=new_orders, duration_ms=duration, recorder=recorder)


def run_fig6(region_counts=(4, 10, 26), clients_per_region: int = 2,
             txns_per_client: int = 12,
             options: Optional[TPCCOptions] = None,
             seed: int = 0) -> Fig6Result:
    options = options or TPCCOptions(think_time_ms=2000.0)
    points = [
        _run_point(n, clients_per_region, txns_per_client, options,
                   placement_restricted=False, seed=seed)
        for n in region_counts
    ]
    return Fig6Result(points=points)


def run_fig6_placement_comparison(n_regions: int = 10,
                                  clients_per_region: int = 2,
                                  txns_per_client: int = 12,
                                  seed: int = 0) -> Dict[str, Fig6Point]:
    """§7.4's check: PLACEMENT RESTRICTED vs DEFAULT latency at 10
    regions (non-voters everywhere should not hurt)."""
    options = TPCCOptions()
    return {
        "default": _run_point(n_regions, clients_per_region,
                              txns_per_client, options, False, seed),
        "restricted": _run_point(n_regions, clients_per_region,
                                 txns_per_client, options, True, seed),
    }
