"""Fig 4: REGIONAL BY ROW performance (§7.2).

Three sub-experiments on a 3-region cluster (us-east1, europe-west2,
asia-northeast1, as in the paper):

* **4a** — YCSB-B, 95%/50% locality of access; variants Unoptimized
  (no LOS), Default (LOS), Rehoming (LOS + auto-rehoming), Baseline
  (manual partitioning).
* **4b** — YCSB-D, 100% locality; INSERT latency for Computed vs
  Default vs Baseline (uniqueness-check omission, §4.1).
* **4c** — YCSB-B, 50% locality with all remote accesses targeting a
  shared key slice; auto-rehoming under contention for c ∈ {1, 2, 3}
  clients per region, against the non-rehoming Default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ...obs.report import LatencyRecorder, Summary, ResultTable
from ...workloads.ycsb import YCSBOptions, YCSBWorkload
from ..runner import build_engine, run_clients, run_ycsb

__all__ = ["Fig4aResult", "run_fig4a", "Fig4bResult", "run_fig4b",
           "Fig4cResult", "run_fig4c", "FIG4_REGIONS"]

FIG4_REGIONS = ("us-east1", "europe-west2", "asia-northeast1")

_FIG4A_VARIANTS = ("unoptimized", "default", "rehoming", "baseline")


@dataclass
class Fig4aResult:
    #: (variant, locality) -> recorder
    recorders: Dict[Tuple[str, float], LatencyRecorder]

    def summary(self, variant: str, locality: float, op: str,
                local: bool) -> Summary:
        recorder = self.recorders[(variant, locality)]
        return recorder.summary(op, "local" if local else "remote")

    def table(self) -> ResultTable:
        table = ResultTable(
            "Fig 4a: LOS and auto-rehoming, YCSB-B (p50 ms)",
            ["variant", "locality", "read local", "read remote",
             "write local", "write remote"])
        for (variant, locality) in sorted(self.recorders):
            row = [variant, f"{int(locality * 100)}%"]
            for op in ("read", "update"):
                for local in (True, False):
                    summary = self.summary(variant, locality, op, local)
                    row.append(summary.p50 if summary.count else float("nan"))
            table.add_row(*row)
        return table


def run_fig4a(regions=FIG4_REGIONS, localities=(0.95, 0.5),
              variants=_FIG4A_VARIANTS, clients_per_region: int = 2,
              ops_per_client: int = 60, keys_per_region: int = 400,
              remote_pool_keys: int = 5, warmup_ops: int = 20,
              seed: int = 0) -> Fig4aResult:
    """Clients revisit small disjoint remote pools, as in the paper
    ("clients accessing a disjoint set of keys"), so auto-rehoming can
    amortize the one-time move."""
    recorders: Dict[Tuple[str, float], LatencyRecorder] = {}
    for variant in variants:
        for locality in localities:
            options = YCSBOptions(
                variant="B", mode=variant, distribution="uniform",
                keys_per_region=keys_per_region,
                locality_of_access=locality,
                remote_pool_keys=remote_pool_keys, seed=seed)
            recorders[(variant, locality)] = run_ycsb(
                regions, options, clients_per_region, ops_per_client,
                seed=seed, warmup_ops=warmup_ops, prehome_pools=True)
    return Fig4aResult(recorders=recorders)


@dataclass
class Fig4bResult:
    recorders: Dict[str, LatencyRecorder]

    def insert_summary(self, variant: str, region: str = "") -> Summary:
        recorder = self.recorders[variant]
        if region:
            return Summary(recorder.samples("insert", "local", region))
        return recorder.summary("insert")

    def table(self) -> ResultTable:
        table = ResultTable(
            "Fig 4b: uniqueness checks on INSERT, YCSB-D (ms)",
            ["variant", "region", "p50", "p90", "p99"])
        for variant in sorted(self.recorders):
            recorder = self.recorders[variant]
            regions = sorted({label[2] for label in recorder.labels()
                              if label[0] == "insert"})
            for region in regions:
                summary = self.insert_summary(variant, region)
                if summary.count:
                    table.add_row(variant, region, summary.p50,
                                  summary.p90, summary.p99)
        return table


def run_fig4b(regions=FIG4_REGIONS,
              variants=("computed", "default", "baseline"),
              clients_per_region: int = 2, ops_per_client: int = 40,
              keys_per_region: int = 300, seed: int = 0) -> Fig4bResult:
    recorders: Dict[str, LatencyRecorder] = {}
    for variant in variants:
        options = YCSBOptions(
            variant="D", mode=variant, distribution="uniform",
            keys_per_region=keys_per_region, locality_of_access=1.0,
            seed=seed)
        recorders[variant] = run_ycsb(
            regions, options, clients_per_region, ops_per_client, seed=seed)
    return Fig4bResult(recorders=recorders)


@dataclass
class Fig4cResult:
    #: label ('rehoming_c1', ..., 'default') -> recorder
    recorders: Dict[str, LatencyRecorder]

    def table(self) -> ResultTable:
        table = ResultTable(
            "Fig 4c: auto-rehoming under contention, YCSB-B 50% locality "
            "(remote-op ms)",
            ["config", "read p50", "read p90", "write p50", "write p90"])
        for config in sorted(self.recorders):
            recorder = self.recorders[config]
            reads = recorder.summary("read", "remote")
            writes = recorder.summary("update", "remote")
            table.add_row(config, reads.p50, reads.p90, writes.p50,
                          writes.p90)
        return table


def _run_contended(regions, mode: str, contenders: int,
                   ops_per_client: int, keys_per_region: int,
                   contended_keys: int, seed: int,
                   warmup_ops: int = 0) -> LatencyRecorder:
    """``contenders`` clients, one per region (starting after the slice's
    home region), all aiming their remote ops at one shared key slice."""
    regions = list(regions)
    engine = build_engine(regions, seed=seed)
    options = YCSBOptions(
        variant="B", mode=mode, distribution="uniform",
        keys_per_region=keys_per_region, locality_of_access=0.5,
        contended_keys=contended_keys, contended_region_index=0, seed=seed)
    workload = YCSBWorkload(engine, regions, options)
    workload.setup()
    workload.load()
    recorder = LatencyRecorder(engine.cluster.sim.obs.registry)
    clients = []
    for i in range(contenders):
        region = regions[(i + 1) % len(regions)]
        session = engine.connect(region, index=i)
        session.database = engine.catalog.database("ycsb")
        clients.append(
            lambda s=session, i=i: workload.client(
                s, recorder, ops_per_client, i, warmup_ops=warmup_ops,
                prehome_keys=workload.contended_pool()))
    run_clients(engine, clients, recorder, settle_ms=1000.0)
    return recorder


def run_fig4c(regions=FIG4_REGIONS, contending_clients=(1, 2, 3),
              ops_per_client: int = 60, keys_per_region: int = 400,
              contended_keys: int = 5, warmup_ops: int = 20,
              seed: int = 0) -> Fig4cResult:
    recorders: Dict[str, LatencyRecorder] = {}
    for c in contending_clients:
        recorders[f"rehoming_c{c}"] = _run_contended(
            regions, "rehoming", c, ops_per_client, keys_per_region,
            contended_keys, seed, warmup_ops=warmup_ops)
    recorders["default"] = _run_contended(
        regions, "default", max(contending_clients), ops_per_client,
        keys_per_region, contended_keys, seed, warmup_ops=warmup_ops)
    return Fig4cResult(recorders=recorders)
