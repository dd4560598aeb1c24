"""Deterministic SQL workloads on a fresh engine, for observation.

:func:`run_traced_workload` (the ``python -m repro trace`` / ``metrics``
CLI) runs a *small* workload and returns the engine with the trace
still attached (``engine.cluster.sim.obs``).  Its movr workload is
built to exercise every span-producing layer at least once: a REGIONAL
BY ROW write (local consensus), a GLOBAL-table write (future-time
closed timestamps, hence an explicit ``txn.commit_wait`` span), a local
read, and a remote-region read of the GLOBAL table (served from a
nearby replica).

:func:`run_fixed_workload` runs the fixed-seed kv / movr / tpcc client
pools, and :func:`run_small_tpcc` six TPC-C transactions per client
under either backend; the cost ledger (:mod:`repro.harness.costs`)
pins what each costs.  The same seed and scale always simulate the same
events, with observability on or off.  (Throughput is measured by
``bench/``, not here.)
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..cluster import standard_cluster
from ..obs.report import LatencyRecorder
from ..sql.session import Engine
from ..workloads.movr import new_multi_region_schema_ddl
from ..workloads.tpcc import TPCCOptions, TPCCWorkload
from ..workloads.ycsb import YCSBOptions, YCSBWorkload
from .runner import build_engine, run_clients, sessions_per_region

__all__ = ["DEFAULT_REGIONS", "FIXED_WORKLOADS", "run_traced_workload",
           "run_fixed_workload", "run_small_tpcc", "run_tpcc_clients",
           "trace_roots"]

DEFAULT_REGIONS = ["us-east1", "us-west1", "europe-west2"]


def run_traced_workload(workload: str = "movr", seed: int = 0,
                        regions: Optional[Sequence[str]] = None) -> Engine:
    """Run ``workload`` to completion; returns the engine (with trace)."""
    regions = list(regions or DEFAULT_REGIONS)
    engine = build_engine(regions, seed=seed, obs_enabled=True)
    if workload == "movr":
        _run_movr(engine, regions)
    elif workload == "kv":
        _run_kv(engine, regions)
    else:
        raise ValueError(f"unknown trace workload {workload!r} "
                         "(expected 'movr' or 'kv')")
    return engine


def _settle(engine: Engine, ms: float = 1000.0) -> None:
    """Let closed timestamps propagate before measuring."""
    sim = engine.cluster.sim
    sim.run(until=sim.now + ms)


def _run_movr(engine: Engine, regions: List[str]) -> None:
    home = engine.connect(regions[0])
    for stmt in new_multi_region_schema_ddl(regions):
        home.execute(stmt)
    home.execute("USE movr")
    _settle(engine)
    home.execute("INSERT INTO users (id, city, name) "
                 "VALUES (1, 'new york', 'alice')")
    # The GLOBAL-table write: its commit timestamp lands in the future
    # (paper §6.2.1), so the coordinator owes an explicit commit wait.
    home.execute("INSERT INTO promo_codes (code, description) "
                 "VALUES ('global_5pct', '5% off every ride')")
    home.execute("SELECT name FROM users WHERE id = 1")
    remote = engine.connect(regions[-1])
    remote.execute("USE movr")
    _settle(engine)
    remote.execute("SELECT description FROM promo_codes "
                   "WHERE code = 'global_5pct'")


def _run_kv(engine: Engine, regions: List[str]) -> None:
    """Minimal single-table workload: one write, one read per region."""
    others = ", ".join(f'"{r}"' for r in regions[1:])
    home = engine.connect(regions[0])
    home.execute(f'CREATE DATABASE kv PRIMARY REGION "{regions[0]}"'
                 + (f" REGIONS {others}" if others else ""))
    home.execute("CREATE TABLE kv (k int PRIMARY KEY, v string)")
    _settle(engine)
    home.execute("INSERT INTO kv (k, v) VALUES (1, 'one')")
    for index, region in enumerate(regions):
        session = engine.connect(region, index=1)
        session.execute("USE kv")
        session.execute("SELECT v FROM kv WHERE k = 1")


def trace_roots(engine: Engine) -> List:
    """The workload's root spans, in start order."""
    return list(engine.cluster.sim.obs.tracer.roots)


# -- fixed-seed client pools -------------------------------------------------

#: Workload -> recorded operations per client at scale 1.0 (two clients
#: per region).
FIXED_WORKLOADS = {"kv": 400, "movr": 150, "tpcc": 40}
_CLIENTS_PER_REGION = 2


def _workload_clients(engine: Engine, workload, database: str, n_ops: int,
                      recorder: LatencyRecorder) -> None:
    """Set up and load ``workload``, then run its client loops."""
    workload.setup()
    workload.load()
    sessions = sessions_per_region(engine, DEFAULT_REGIONS,
                                   _CLIENTS_PER_REGION, database)
    makers = [
        (lambda s=s, i=i: workload.client(s, recorder, n_ops, i))
        for i, s in enumerate(sessions)]
    run_clients(engine, makers, recorder)


def _kv_clients(engine: Engine, regions: List[str], n_ops: int,
                recorder: LatencyRecorder, seed: int) -> None:
    options = YCSBOptions(variant="A", mode="default",
                          distribution="uniform", keys_per_region=200,
                          seed=seed)
    _workload_clients(engine, YCSBWorkload(engine, regions, options),
                      "ycsb", n_ops, recorder)


def _movr_clients(engine: Engine, regions: List[str], n_ops: int,
                  recorder: LatencyRecorder, seed: int) -> None:
    home = engine.connect(regions[0])
    for stmt in new_multi_region_schema_ddl(regions):
        home.execute(stmt)
    home.execute("USE movr")
    sim = engine.cluster.sim

    def client(session, client_id: int):
        base = client_id * 1_000_000
        for i in range(n_ops):
            uid = base + i
            start = sim.now
            yield from session.execute_co(
                f"INSERT INTO users (id, city, name) "
                f"VALUES ({uid}, 'city-{client_id}', 'user-{uid}')")
            recorder.record(("write", session.region), sim.now - start)
            start = sim.now
            yield from session.execute_co(
                f"SELECT name FROM users WHERE id = {uid}")
            recorder.record(("read", session.region), sim.now - start)

    sessions = sessions_per_region(engine, regions, _CLIENTS_PER_REGION,
                                   "movr")
    makers = [(lambda s=s, i=i: client(s, i))
              for i, s in enumerate(sessions)]
    run_clients(engine, makers, recorder)


def run_tpcc_clients(engine: Engine, regions: List[str], n_txns: int,
                     recorder: LatencyRecorder, seed: int) -> None:
    """Set up, load and run the small fixed TPC-C mix on ``engine``."""
    options = TPCCOptions(warehouses_per_region=2, districts_per_warehouse=3,
                          customers_per_district=5, items=25, seed=seed)
    _workload_clients(engine, TPCCWorkload(engine, regions, options),
                      "tpcc", n_txns, recorder)


_CLIENT_POOLS = {"kv": _kv_clients, "movr": _movr_clients,
                 "tpcc": run_tpcc_clients}


def run_fixed_workload(workload: str, seed: int = 0,
                       obs_enabled: bool = False, scale: float = 1.0
                       ) -> Tuple[Engine, LatencyRecorder]:
    """One complete fixed-seed run; returns (engine, recorder)."""
    if workload not in FIXED_WORKLOADS:
        raise ValueError(f"unknown fixed workload {workload!r} "
                         f"(expected one of {sorted(FIXED_WORKLOADS)})")
    n_ops = max(1, int(round(FIXED_WORKLOADS[workload] * scale)))
    engine = build_engine(DEFAULT_REGIONS, seed=seed,
                          obs_enabled=obs_enabled)
    recorder = LatencyRecorder(engine.cluster.sim.obs.registry)
    _CLIENT_POOLS[workload](engine, DEFAULT_REGIONS, n_ops, recorder, seed)
    return engine, recorder


def run_small_tpcc(protocol: str, obs_enabled: bool = False, seed: int = 0
                   ) -> Tuple[Engine, LatencyRecorder]:
    """Six TPC-C transactions per client under ``protocol``."""
    cluster = standard_cluster(
        DEFAULT_REGIONS, max_clock_offset=250.0, skew_fraction=0.05,
        jitter_fraction=0.02, seed=seed, obs_enabled=obs_enabled,
        txn_protocol=protocol)
    engine = Engine(cluster, seed=seed)
    recorder = LatencyRecorder(cluster.sim.obs.registry)
    run_tpcc_clients(engine, DEFAULT_REGIONS, 6, recorder, seed)
    return engine, recorder
