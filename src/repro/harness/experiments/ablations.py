"""Ablations on the design choices DESIGN.md calls out.

1. **Closed-timestamp lead sizing** (§6.2.1): the leaseholder must close
   ``L_raft + L_replicate + max_clock_offset`` (+ transport slack) into
   the future.  Undersizing the lead makes follower reads miss (they
   redirect to the leaseholder, paying WAN RTTs); oversizing it only
   inflates writer commit wait.  The sweep scales the computed lead and
   measures both sides of the trade.
2. **Commit wait concurrent with lock release vs Spanner-style holding**
   (§6.2): contending GLOBAL writers either overlap their commit waits
   (CRDB) or serialize behind each other's locks (Spanner-style).
3. **Side-transport interval**: a slower closed-timestamp side transport
   forces a larger lead (stale broadcasts must still cover present
   time), directly inflating GLOBAL write latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ...kv.closedts import LeadPolicy
from ...kv.distsender import ReadRouting
from ...obs.report import LatencyRecorder, Summary, ResultTable
from ...sim.network import TABLE1_REGIONS
from ...sql.catalog import DEFAULT_PARTITION
from ...workloads.ycsb import YCSBOptions, YCSBWorkload
from ..runner import build_engine, run_clients, sessions_per_region

__all__ = ["run_lead_time_ablation", "run_commit_wait_ablation",
           "run_side_transport_ablation"]

PRIMARY = TABLE1_REGIONS[0]
REMOTE = "europe-west2"


def _global_engine(max_clock_offset=250.0, seed=0,
                   side_transport_interval_ms=100.0,
                   spanner_style=False):
    engine = build_engine(
        list(TABLE1_REGIONS), max_clock_offset=max_clock_offset, seed=seed,
        side_transport_interval_ms=side_transport_interval_ms,
        jitter_fraction=0.0)
    engine.coordinator.spanner_style_commit_wait = spanner_style
    session = engine.connect(PRIMARY)
    others = ", ".join(f'"{r}"' for r in TABLE1_REGIONS[1:])
    session.execute(f'CREATE DATABASE d PRIMARY REGION "{PRIMARY}" '
                    f"REGIONS {others}")
    session.execute("CREATE TABLE t (id int PRIMARY KEY, v string) "
                    "LOCALITY GLOBAL")
    table = engine.catalog.database("d").table("t")
    rng = table.primary_index.partitions[DEFAULT_PARTITION]
    return engine, session, rng


def run_lead_time_ablation(scales=(0.25, 0.5, 1.0, 2.0),
                           n_ops: int = 30, seed: int = 0) -> ResultTable:
    """Scale the computed lead time and measure remote fresh-read p50
    (follower hit vs leaseholder fallback) and write p50 (commit wait)."""
    table = ResultTable(
        "Ablation: closed-timestamp lead sizing (GLOBAL table)",
        ["lead scale", "lead ms", "remote read p50", "write p50",
         "follower reads served"])
    for scale in scales:
        engine, session, rng = _global_engine(seed=seed)
        computed = rng.policy.lead_ms
        rng.policy = LeadPolicy(lead_ms=computed * scale)
        session.execute("INSERT INTO t (id, v) VALUES (1, 'x')")
        sim = engine.cluster.sim
        sim.run(until=sim.now + 3000.0)

        remote = engine.connect(REMOTE)
        remote.database = engine.catalog.database("d")
        read_latencies = []
        write_latencies = []
        served_locally = 0
        for i in range(n_ops):
            start = sim.now
            remote.execute("SELECT v FROM t WHERE id = 1")
            latency = sim.now - start
            read_latencies.append(latency)
            if latency < 10.0:
                served_locally += 1
            start = sim.now
            session.execute(f"UPDATE t SET v = 'v{i}' WHERE id = 1")
            write_latencies.append(sim.now - start)
            sim.run(until=sim.now + 120.0)
        table.add_row(f"{scale:.2f}x", computed * scale,
                      Summary(read_latencies).p50,
                      Summary(write_latencies).p50,
                      f"{served_locally}/{n_ops}")
    return table


def run_commit_wait_ablation(n_writers: int = 4,
                             seed: int = 0) -> ResultTable:
    """Contending GLOBAL writers: concurrent (CRDB) vs serialized
    (Spanner-style) commit waits.

    Uses blind single-key writes at the KV layer so the measurement
    isolates lock-hold duration (read-modify-write retries would add
    identical noise to both styles)."""
    table = ResultTable(
        "Ablation: commit wait concurrent with lock release",
        ["style", "slowest writer (ms)", "mean writer (ms)"])
    for style in ("crdb", "spanner"):
        engine, session, rng = _global_engine(
            seed=seed, spanner_style=(style == "spanner"))
        sim = engine.cluster.sim
        sim.run(until=sim.now + 2000.0)
        done_at: List[float] = []
        start = sim.now

        def writer(i):
            gateway = engine.cluster.gateway_for_region(PRIMARY,
                                                        index=i % 3)

            def txn_fn(txn):
                yield from txn.write(rng, ("contended",), f"w{i}")

            yield from engine.coordinator.run(gateway, txn_fn)
            done_at.append(sim.now - start)

        start = sim.now
        processes = [sim.spawn(writer(i)) for i in range(n_writers)]
        for process in processes:
            sim.run_until_future(process)
        table.add_row(style, max(done_at), sum(done_at) / len(done_at))
    return table


def run_side_transport_ablation(intervals=(50.0, 200.0, 1000.0),
                                seed: int = 0) -> ResultTable:
    """Side-transport interval vs GLOBAL write latency and remote read
    availability."""
    table = ResultTable(
        "Ablation: closed-timestamp side-transport interval",
        ["interval ms", "lead ms", "write p50", "remote read p50"])
    for interval in intervals:
        engine, session, rng = _global_engine(
            seed=seed, side_transport_interval_ms=interval)
        sim = engine.cluster.sim
        sim.run(until=sim.now + 3.0 * interval + 2000.0)
        remote = engine.connect(REMOTE)
        remote.database = engine.catalog.database("d")
        writes, reads = [], []
        session.execute("INSERT INTO t (id, v) VALUES (1, 'x')")
        sim.run(until=sim.now + 2.0 * interval + 1000.0)
        for i in range(20):
            start = sim.now
            session.execute(f"UPDATE t SET v = 'v{i}' WHERE id = 1")
            writes.append(sim.now - start)
            sim.run(until=sim.now + interval)
            start = sim.now
            remote.execute("SELECT v FROM t WHERE id = 1")
            reads.append(sim.now - start)
        table.add_row(interval, rng.policy.lead_ms, Summary(writes).p50,
                      Summary(reads).p50)
    return table
