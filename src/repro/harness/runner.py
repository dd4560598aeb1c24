"""Generic experiment running: client pools over the simulation."""

from __future__ import annotations

from typing import Callable, Generator, List, Optional, Sequence

from ..cluster import standard_cluster
from ..obs.report import LatencyRecorder
from ..sim.network import TABLE1_RTT_MS, synthetic_rtt_matrix
from ..sql.session import Engine, Session
from ..workloads.ycsb import YCSBOptions, YCSBWorkload

__all__ = ["build_engine", "run_clients", "sessions_per_region", "run_ycsb"]


def build_engine(regions: Sequence[str], nodes_per_region: int = 3,
                 max_clock_offset: float = 250.0,
                 skew_fraction: float = 0.05,
                 jitter_fraction: float = 0.02,
                 rtt_matrix=None,
                 side_transport_interval_ms: float = 100.0,
                 closed_ts_lag_ms: Optional[float] = None,
                 seed: int = 0,
                 obs_enabled: bool = False,
                 trace_sample_every: int = 1,
                 raft_coalesce_ms: Optional[float] = None) -> Engine:
    """A cluster + engine with the evaluation's standard knobs.

    The default RTT matrix is the paper's Table 1; region names outside
    it (Fig 6's 26-region sweep) should pass
    :func:`~repro.sim.network.synthetic_rtt_matrix`.

    ``skew_fraction`` sets how much of ``max_clock_offset`` the *actual*
    clocks use: production NTP keeps real skew in the low milliseconds
    while the 250 ms offset is only a safety bound, so the evaluation
    default is 5%.  Raise it to stress uncertainty/commit-wait paths.
    """
    cluster = standard_cluster(
        regions, nodes_per_region=nodes_per_region,
        max_clock_offset=max_clock_offset, skew_fraction=skew_fraction,
        jitter_fraction=jitter_fraction, rtt_matrix=rtt_matrix, seed=seed,
        obs_enabled=obs_enabled, trace_sample_every=trace_sample_every,
        raft_coalesce_ms=raft_coalesce_ms)
    return Engine(cluster,
                  side_transport_interval_ms=side_transport_interval_ms,
                  closed_ts_lag_ms=closed_ts_lag_ms, seed=seed)


def sessions_per_region(engine: Engine, regions: Sequence[str],
                        clients_per_region: int,
                        database: str) -> List[Session]:
    """One session per simulated client, collocated with region nodes."""
    sessions = []
    for region in regions:
        for i in range(clients_per_region):
            session = engine.connect(region, index=i)
            session.database = engine.catalog.database(database)
            sessions.append(session)
    return sessions


def run_clients(engine: Engine,
                client_coroutines: Sequence[Callable[[], Generator]],
                recorder: LatencyRecorder,
                settle_ms: float = 1000.0) -> LatencyRecorder:
    """Run all client loops to completion in the shared simulation.

    ``settle_ms`` of simulated time passes first so closed timestamps
    reach followers before measurement starts (the paper's runs are
    long enough that warm-up is negligible; ours are short, so we warm
    up explicitly).
    """
    sim = engine.cluster.sim
    sim.run(until=sim.now + settle_ms)
    recorder.started_at = sim.now
    processes = [sim.spawn(make(), name=f"client-{i}")
                 for i, make in enumerate(client_coroutines)]
    for process in processes:
        sim.run_until_future(process)
    recorder.finished_at = sim.now
    return recorder


def run_ycsb(regions: Sequence[str], options: YCSBOptions,
             clients_per_region: int, ops_per_client: int, seed: int = 0,
             max_clock_offset: float = 250.0, settle_ms: float = 1000.0,
             warmup_ops: int = 0,
             prehome_pools: bool = False) -> LatencyRecorder:
    """One YCSB run on a fresh engine: set up, load, one client per
    session, run to completion; returns the latency recorder."""
    regions = list(regions)
    engine = build_engine(regions, max_clock_offset=max_clock_offset,
                          seed=seed)
    workload = YCSBWorkload(engine, regions, options)
    workload.setup()
    workload.load()
    recorder = LatencyRecorder(engine.cluster.sim.obs.registry)
    sessions = sessions_per_region(engine, regions, clients_per_region,
                                   "ycsb")
    clients = []
    for i, s in enumerate(sessions):
        prehome = (workload.remote_pool(s.region, i)
                   if prehome_pools else None)
        clients.append(
            lambda s=s, i=i, p=prehome: workload.client(
                s, recorder, ops_per_client, i, warmup_ops=warmup_ops,
                prehome_keys=p))
    run_clients(engine, clients, recorder, settle_ms=settle_ms)
    return recorder
