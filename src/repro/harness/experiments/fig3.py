"""Fig 3: transaction latency for REGIONAL vs GLOBAL tables (§7.1).

Workload: YCSB-A (1:1 reads/writes), Zipf keys, 5 regions (Table 1
RTTs), us-east1 PRIMARY holding all leaseholders, ``max_clock_offset``
250 ms.  Three configurations:

* **Global** — fresh reads/writes on a GLOBAL table;
* **Regional (Latest)** — fresh reads/writes on REGIONAL BY TABLE;
* **Regional (Stale)** — bounded-staleness reads on the REGIONAL table
  (writes are identical to Regional (Latest) and not re-measured).

Reported separately for the PRIMARY region and non-PRIMARY regions,
matching the paper's box plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ...obs.report import LatencyRecorder, Summary, ResultTable
from ...sim.network import TABLE1_REGIONS
from ...workloads.ycsb import YCSBOptions
from ..runner import run_ycsb

__all__ = ["Fig3Result", "run_fig3", "FIG3_CONFIGS"]

PRIMARY = TABLE1_REGIONS[0]

FIG3_CONFIGS = ("global", "regional_latest", "regional_stale")

_MODE_OF = {
    "global": "global",
    "regional_latest": "regional_table",
    "regional_stale": "regional_table",
}


@dataclass
class Fig3Result:
    #: config -> recorder with (op, local/remote, region) labels.
    recorders: Dict[str, LatencyRecorder]

    def summary(self, config: str, op: str, primary: bool) -> Summary:
        recorder = self.recorders[config]
        samples: List[float] = []
        for label in recorder.labels():
            if label[0] != op:
                continue
            in_primary = label[2] == PRIMARY
            if in_primary == primary:
                samples.extend(recorder.samples(*label))
        return Summary(samples)

    def table(self) -> ResultTable:
        table = ResultTable(
            "Fig 3: txn latency, REGIONAL vs GLOBAL (ms)",
            ["config", "op", "origin", "p50", "p90", "p99"])
        for config in FIG3_CONFIGS:
            ops = ("read",) if config == "regional_stale" else \
                ("read", "update")
            for op in ops:
                for primary in (True, False):
                    summary = self.summary(config, op, primary)
                    if summary.count == 0:
                        continue
                    table.add_row(config, op,
                                  "primary" if primary else "non-primary",
                                  summary.p50, summary.p90, summary.p99)
        return table


def run_fig3(regions=TABLE1_REGIONS, clients_per_region: int = 3,
             ops_per_client: int = 40, keys_per_region: int = 400,
             max_clock_offset: float = 250.0, seed: int = 0,
             configs=FIG3_CONFIGS) -> Fig3Result:
    """Run the Fig 3 experiment (scaled down from 2.5M requests)."""
    regions = list(regions)
    recorders: Dict[str, LatencyRecorder] = {}
    for config in configs:
        options = YCSBOptions(
            variant="A", mode=_MODE_OF[config], distribution="zipf",
            keys_per_region=keys_per_region,
            read_staleness_ms=(30_000.0 if config == "regional_stale"
                               else None),
            seed=seed)
        recorders[config] = run_ycsb(
            regions, options, clients_per_region, ops_per_client, seed=seed,
            max_clock_offset=max_clock_offset, settle_ms=2000.0)
    return Fig3Result(recorders=recorders)
