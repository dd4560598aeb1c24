"""Per-layer micro-benchmarks: host cost of one call, each layer in isolation.

ROADMAP item 1a.  Every number is the median of ``BATCHES`` batches; a batch
builds fresh state, times ``n`` operations with one ``perf_counter_ns`` pair
and reports host time per operation.  The end-to-end workloads say where the
time goes in a real run; these say what one call costs with nothing else
going on, so a layer-local optimisation has a number that is not diluted.

Unlike ``workloads.py`` this file reaches below the stable entry points
(``MVCCStore``, ``LockTable``, ``provision_range``, ...): measuring a layer
alone means constructing it alone.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns
from typing import Dict

from repro.cluster import standard_cluster
from repro.kv.commands import SetTxnRecordCommand
from repro.placement import SurvivalGoal, provision_range, zone_config_for_home
from repro.sim.clock import Timestamp
from repro.sim.core import Simulator
from repro.sql.parser import parse
from repro.storage.locktable import LockTable
from repro.storage.mvcc import MVCCStore
from repro.txn import TransactionCoordinator

from bench.workloads import REGIONS

__all__ = ["METRICS", "run_micro"]

BATCHES = 5


def _noop(*_args) -> None:
    return None


def _cluster():
    return standard_cluster(list(REGIONS), seed=0, obs_enabled=False)


def _range(cluster, goal: str):
    config = zone_config_for_home(REGIONS[0], cluster.regions(), goal)
    return provision_range(cluster, config, name="micro",
                           side_transport_interval_ms=100.0)


def _drive(sim: Simulator, body) -> int:
    """Host ns to run the process ``body()`` to completion."""
    process = sim.spawn(body(), name="micro")
    started = perf_counter_ns()
    sim.run_until_future(process)
    return perf_counter_ns() - started


def timer_ns(n: int = 20000) -> float:
    """Schedule and dispatch one kernel timer."""
    sim = Simulator(obs_enabled=False)
    started = perf_counter_ns()
    for i in range(n):
        sim.call_after(1.0 + i % 97, _noop)
    sim.run()
    return (perf_counter_ns() - started) / n


def switch_ns(n: int = 10000) -> float:
    """Suspend a process on a sleep and resume it."""
    sim = Simulator(obs_enabled=False)

    def body():
        for _ in range(n):
            yield sim.sleep(0.5)

    return _drive(sim, body) / n


def send_ns(n: int = 10000) -> float:
    """One cross-region ``Network.send`` and its delivery."""
    cluster = _cluster()
    src, dst = cluster.nodes[0], cluster.nodes[3]
    send = cluster.network.send
    started = perf_counter_ns()
    for _ in range(n):
        send(src, dst, _noop)
    cluster.sim.run()
    return (perf_counter_ns() - started) / n


def _propose_us(goal: str, n: int) -> float:
    cluster = _cluster()
    rng = _range(cluster, goal)

    def body():
        for i in range(n):
            yield rng.group.propose(
                SetTxnRecordCommand(txn_id=i, status="committed",
                                    commit_ts=None), rng.closed_target())

    return _drive(cluster.sim, body) / n / 1000.0


def propose_us_3v(n: int = 400) -> float:
    """Raft propose -> quorum -> apply, 3 voters in one region."""
    return _propose_us(SurvivalGoal.ZONE, n)


def propose_us_5v(n: int = 300) -> float:
    """Raft propose -> quorum -> apply, 5 voters across regions."""
    return _propose_us(SurvivalGoal.REGION, n)


def _loaded_store(n: int) -> MVCCStore:
    store = MVCCStore()
    for i in range(n):
        store.put_committed(i, Timestamp(1.0 + i), f"v{i}")
    return store


def mvcc_get_ns(n: int = 20000) -> float:
    store = _loaded_store(n)
    read_ts = Timestamp(1e9)
    started = perf_counter_ns()
    for i in range(n):
        store.get(i, read_ts)
    return (perf_counter_ns() - started) / n


def mvcc_put_ns(n: int = 20000) -> float:
    store = MVCCStore()
    started = perf_counter_ns()
    for i in range(n):
        store.put_committed(i, Timestamp(1.0 + i), "v")
    return (perf_counter_ns() - started) / n


def locktable_wait_release_ns(n: int = 10000) -> float:
    """Note a holder, queue one waiter behind it, release."""
    table = LockTable(Simulator(obs_enabled=False))
    ts = Timestamp(1.0)
    started = perf_counter_ns()
    for i in range(n):
        table.note_holder(i, 1, ts)
        table.wait_for(i, 2)
        table.release(i, 1)
    return (perf_counter_ns() - started) / n


def distsender_read_us(n: int = 500) -> float:
    """One leaseholder read RPC from a gateway in the home region."""
    cluster = _cluster()
    rng = _range(cluster, SurvivalGoal.ZONE)
    sender = TransactionCoordinator(cluster).distsender
    gateway = cluster.gateway_for_region(REGIONS[0])

    def body():
        for i in range(n):
            yield sender.read(gateway, rng, i % 50, gateway.clock.now())

    return _drive(cluster.sim, body) / n / 1000.0


def _commit_us(protocol: str, n: int) -> float:
    cluster = _cluster()
    rng = _range(cluster, SurvivalGoal.ZONE)
    coordinator = TransactionCoordinator(cluster, protocol=protocol)
    gateway = cluster.gateway_for_region(REGIONS[0])

    def body():
        for i in range(n):
            def txn_fn(txn, i=i):
                yield from txn.write(rng, i, "v")
            yield from coordinator.run(gateway, txn_fn)

    return _drive(cluster.sim, body) / n / 1000.0


def commit_us_crdb(n: int = 250) -> float:
    """One single-key write transaction, begin to commit ack, CRDB."""
    return _commit_us("crdb", n)


def commit_us_epoch(n: int = 250) -> float:
    """The same transaction under epoch-OCC."""
    return _commit_us("epoch-occ", n)


def parser_miss_us(n: int = 600) -> float:
    """Parse a statement text never seen before."""
    salt = perf_counter_ns()  # unique across batches and runs
    texts = [f"SELECT name FROM users WHERE id = {salt + i}"
             for i in range(n)]
    started = perf_counter_ns()
    for text in texts:
        parse(text)
    return (perf_counter_ns() - started) / n / 1000.0


def parser_hit_ns(n: int = 20000) -> float:
    """Parse a statement text already in the cache."""
    text = "SELECT name FROM users WHERE id = 1"
    parse(text)
    started = perf_counter_ns()
    for _ in range(n):
        parse(text)
    return (perf_counter_ns() - started) / n


#: metric name -> (unit, benchmark)
METRICS: Dict[str, tuple] = {
    "micro.sim.core.timer_ns": ("ns", timer_ns),
    "micro.sim.core.switch_ns": ("ns", switch_ns),
    "micro.sim.network.send_ns": ("ns", send_ns),
    "micro.raft.propose_us_3v": ("us", propose_us_3v),
    "micro.raft.propose_us_5v": ("us", propose_us_5v),
    "micro.storage.mvcc.get_ns": ("ns", mvcc_get_ns),
    "micro.storage.mvcc.put_ns": ("ns", mvcc_put_ns),
    "micro.storage.locktable.wait_release_ns":
        ("ns", locktable_wait_release_ns),
    "micro.kv.distsender.read_us": ("us", distsender_read_us),
    "micro.txn.commit_us_crdb": ("us", commit_us_crdb),
    "micro.txn.commit_us_epoch": ("us", commit_us_epoch),
    "micro.sql.parser.miss_us": ("us", parser_miss_us),
    "micro.sql.parser.hit_ns": ("ns", parser_hit_ns),
}


def run_micro() -> Dict[str, float]:
    """Every micro metric, median of ``BATCHES`` batches."""
    out = {}
    for name, (_unit, benchmark) in METRICS.items():
        out[name] = statistics.median(benchmark() for _ in range(BATCHES))
    return out
