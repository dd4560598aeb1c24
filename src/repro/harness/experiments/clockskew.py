"""Commit wait vs actual clock skew (clock-safety companion sweep).

GLOBAL-table writers commit-wait until their synthetic commit timestamp
falls below *their gateway's* clock (§6.2).  The wait is therefore only
as honest as that clock:

* a **lagging** gateway over-waits — pure latency cost, no risk;
* a **leading** gateway under-waits — it acks while the commit
  timestamp is still further in the future than an honest clock would
  allow, and only the uncertainty interval (``max_clock_offset``) keeps
  readers correct.  Beyond the contract, correctness is gone — which is
  exactly the line the clock-safety monitor fences at.

The sweep steps one gateway's clock across (and past) the tolerated
range and measures, for GLOBAL writes issued from that gateway:

* **write p50** — commit wait dominates, so latency falls as the clock
  leads (the "too good to be true" signal);
* **mean commit wait** — straight from the coordinator's stats;
* **mean ack lead** — ``commit_ts − wall`` at ack time: how far in the
  future the acked timestamp still is.  Honest readers are safe while
  this stays under ``max_clock_offset``; the sweep shows it crossing
  the bound exactly when the injected skew does.
"""

from __future__ import annotations

from ...obs.report import Summary, ResultTable
from ...sim.network import TABLE1_REGIONS
from .ablations import _global_engine

__all__ = ["run_clock_skew_sweep"]

PRIMARY = TABLE1_REGIONS[0]

#: Injected gateway clock offsets (ms).  The contract is +-250 ms;
#: +400 steps beyond it to show the ack lead leaving the safe range.
DEFAULT_OFFSETS_MS = (-200.0, -100.0, 0.0, 100.0, 200.0, 400.0)


def run_clock_skew_sweep(offsets_ms=DEFAULT_OFFSETS_MS, n_ops: int = 20,
                         seed: int = 0,
                         max_clock_offset: float = 250.0) -> ResultTable:
    """GLOBAL write latency / commit wait / ack lead vs gateway skew."""
    table = ResultTable(
        "Commit wait vs actual gateway clock skew (GLOBAL writes, "
        f"max_clock_offset={max_clock_offset:.0f}ms)",
        ["injected skew", "actual skew", "write p50", "mean commit wait",
         "mean ack lead", "within contract"])
    for offset in offsets_ms:
        engine, session, rng = _global_engine(
            max_clock_offset=max_clock_offset, seed=seed)
        cluster = engine.cluster
        sim = cluster.sim
        # Writer gateway != leaseholder: the lead target comes from the
        # (healthy) leaseholder clock while commit wait runs on the
        # skewed gateway clock — skewing the leaseholder itself would
        # shift both and cancel out.
        gateway = cluster.gateway_for_region(PRIMARY, index=1)
        # Step the gateway's clock on top of its base skew; the rest of
        # the cluster keeps its seeded in-contract offsets.
        cluster.clock.jump(gateway.node_id, offset)
        actual = cluster.clock.effective_offset(gateway.node_id)
        session.execute("INSERT INTO t (id, v) VALUES (1, 'x')")
        sim.run(until=sim.now + 2000.0)

        waits_before = engine.coordinator.stats.commit_wait_ms_total
        count_before = engine.coordinator.stats.commit_waits
        latencies, ack_leads = [], []
        for i in range(n_ops):

            def txn_fn(txn, i=i):
                yield from txn.write(rng, ("skew",), f"w{i}")

            start = sim.now
            _result, commit_ts = sim.run_until_future(sim.spawn(
                engine.coordinator.run(gateway, txn_fn)))
            latencies.append(sim.now - start)
            ack_leads.append(commit_ts.physical - sim.now)
            sim.run(until=sim.now + 100.0)

        waited = (engine.coordinator.stats.commit_wait_ms_total
                  - waits_before)
        commits = max(1, engine.coordinator.stats.commit_waits
                      - count_before)
        mean_lead = sum(ack_leads) / len(ack_leads)
        table.add_row(
            f"{offset:+.0f}ms", f"{actual:+.1f}ms",
            Summary(latencies).p50, round(waited / commits, 1),
            round(mean_lead, 1),
            "yes" if mean_lead <= max_clock_offset else "NO (fence zone)")
    return table
