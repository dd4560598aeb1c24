"""Fig 5: read/write latency CDFs for GLOBAL tables vs baselines (§7.3).

Same workload as Fig 3 (YCSB-A, Zipf, 5 regions), comparing:

* **global_250 / global_50 / global_10** — GLOBAL tables at
  ``max_clock_offset`` ∈ {250, 50, 10} ms;
* **dup_idx** — the duplicate-indexes baseline (§7.3.1): per-region
  pinned covering indexes, reads local, writes fan out to all regions
  in one transaction;
* **regional_latest / regional_stale** — the Fig 3 REGIONAL configs.

The paper's headline: GLOBAL read tails are *bounded* by
``max_clock_offset`` while duplicate-index read/write tails are
unbounded under contention (writers queue behind each other's WAN
round trips).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Generator, List, Tuple

from ...baselines.duplicate_indexes import DuplicateIndexTable
from ...obs.report import LatencyRecorder, Summary, cdf_points, ResultTable
from ...sim.network import TABLE1_REGIONS
from ...workloads.zipf import ZipfGenerator
from ...workloads.ycsb import YCSBOptions
from ..runner import build_engine, run_clients, run_ycsb

__all__ = ["Fig5Result", "run_fig5", "FIG5_CONFIGS"]

FIG5_CONFIGS = ("global_250", "global_50", "global_10", "dup_idx",
                "regional_latest", "regional_stale")


@dataclass
class Fig5Result:
    recorders: Dict[str, LatencyRecorder]

    def summary(self, config: str, op: str) -> Summary:
        ops = ("read",) if op == "read" else ("update", "write")
        samples: List[float] = []
        recorder = self.recorders[config]
        for name in ops:
            samples.extend(recorder.samples(name))
        return Summary(samples)

    def cdf(self, config: str, op: str) -> List[Tuple[float, float]]:
        ops = ("read",) if op == "read" else ("update", "write")
        samples: List[float] = []
        recorder = self.recorders[config]
        for name in ops:
            samples.extend(recorder.samples(name))
        return cdf_points(samples)

    def table(self) -> ResultTable:
        table = ResultTable(
            "Fig 5: latency CDF summary (ms)",
            ["config", "op", "p50", "p90", "p99", "max"])
        for config in self.recorders:
            for op in ("read", "write"):
                summary = self.summary(config, op)
                if summary.count:
                    table.add_row(config, op, summary.p50, summary.p90,
                                  summary.p99, summary.max)
        return table


def _run_dup_idx(regions, clients_per_region: int, ops_per_client: int,
                 keys: int, max_clock_offset: float,
                 seed: int) -> LatencyRecorder:
    engine = build_engine(list(regions), max_clock_offset=max_clock_offset,
                          seed=seed)
    cluster = engine.cluster
    table = DuplicateIndexTable(cluster, engine.coordinator, list(regions),
                                side_transport_interval_ms=100.0)
    from ...sim.clock import Timestamp
    load_ts = Timestamp(-1000.0)
    table.bulk_load([((k,), f"value-{k}") for k in range(keys)], load_ts)
    recorder = LatencyRecorder(engine.cluster.sim.obs.registry)
    sim = cluster.sim

    def make_client(region: str, client_id: int):
        def client() -> Generator:
            gateway = cluster.gateway_for_region(region, client_id)
            sampler = ZipfGenerator(keys, seed=seed * 10007 + client_id)
            op_rng = random.Random(seed * 31 + client_id)
            for i in range(ops_per_client):
                key = (sampler.next(),)
                start = sim.now
                if op_rng.random() < 0.5:
                    yield from table.read_co(gateway, key)
                    recorder.record(("read", region), sim.now - start)
                else:
                    yield from table.write_co(gateway, key,
                                              f"v-{client_id}-{i}")
                    recorder.record(("write", region), sim.now - start)
            return None
        return client

    clients = [make_client(region, i)
               for region in regions
               for i in range(clients_per_region)]
    run_clients(engine, clients, recorder, settle_ms=1000.0)
    return recorder


def _run_sql_config(regions, mode: str, staleness_ms, clients_per_region,
                    ops_per_client, keys_per_region, max_clock_offset,
                    seed) -> LatencyRecorder:
    options = YCSBOptions(variant="A", mode=mode, distribution="zipf",
                          keys_per_region=keys_per_region,
                          read_staleness_ms=staleness_ms, seed=seed)
    return run_ycsb(regions, options, clients_per_region, ops_per_client,
                    seed=seed, max_clock_offset=max_clock_offset,
                    settle_ms=2000.0)


def run_fig5(regions=TABLE1_REGIONS, clients_per_region: int = 3,
             ops_per_client: int = 40, keys_per_region: int = 200,
             seed: int = 0, configs=FIG5_CONFIGS) -> Fig5Result:
    regions = list(regions)
    total_keys = keys_per_region * len(regions)
    recorders: Dict[str, LatencyRecorder] = {}
    for config in configs:
        if config.startswith("global_"):
            offset = float(config.split("_")[1])
            recorders[config] = _run_sql_config(
                regions, "global", None, clients_per_region, ops_per_client,
                keys_per_region, offset, seed)
        elif config == "dup_idx":
            recorders[config] = _run_dup_idx(
                regions, clients_per_region, ops_per_client, total_keys,
                250.0, seed)
        elif config == "regional_latest":
            recorders[config] = _run_sql_config(
                regions, "regional_table", None, clients_per_region,
                ops_per_client, keys_per_region, 250.0, seed)
        elif config == "regional_stale":
            recorders[config] = _run_sql_config(
                regions, "regional_table", 30_000.0, clients_per_region,
                ops_per_client, keys_per_region, 250.0, seed)
        else:
            raise ValueError(f"unknown config {config!r}")
    return Fig5Result(recorders=recorders)
