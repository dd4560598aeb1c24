"""Overload chaos scenarios: graceful degradation under saturation.

Unlike the fault-injection scenarios, the nemesis here is *load*: an
open-loop Poisson arrival process offering 2-4x the store evaluation
capacity, either globally or against a single hot region.  The
invariants are the graceful-degradation properties the admission
subsystem exists to provide:

* **Goodput holds near capacity** — at 4x offered load the admitted
  goodput stays >= 80% of the measured capacity (the best goodput the
  admission-on curve ever reaches).  Excess arrivals are rejected or
  shed at the gateway instead of destroying the work already admitted.
* **Admitted p99 bounded** — requests that *are* admitted still finish
  within the request deadline at p99; the queue never silently trades
  admission for unbounded latency.
* **No livelock after the load drops** — once arrivals stop and the
  system drains, a fresh probe request in every region completes
  promptly.  Metastable failure modes (retry storms sustaining the
  overload after its trigger is gone) would fail this check.
* **Collapse without admission** — the same offered load against the
  same store capacity with the protections disabled demonstrably
  collapses (goodput under 50% of capacity), proving the degradation
  above is graceful *because of* admission control, not because the
  load was survivable anyway.

Everything is deterministic from the seed; these scenarios back the
acceptance gates that ``python -m repro scale`` sweeps continuously.
"""

from __future__ import annotations

from typing import Dict

from ..harness.openloop import OpenLoopConfig, OpenLoopHarness
from ..harness.scale import COLLAPSE_CEILING, GOODPUT_FLOOR
from ..obs import nearest_rank
from .invariants import (FAIL, OK, History, InvariantReport, OpRecord,
                         ScenarioResult)

__all__ = ["overload_global", "overload_hot_region",
           "GOODPUT_FLOOR", "COLLAPSE_CEILING", "PROBE_BOUND_MS"]

#: A post-drain probe slower than this indicates residual livelock
#: (the unloaded baseline read is single-digit milliseconds).
PROBE_BOUND_MS = 100.0
PEAK_MULTIPLIER = 4.0
ON_DURATION_MS = 1000.0
#: The collapse baseline needs a longer window: the unprotected
#: backlog (and with it the latency it inflicts) grows linearly in the
#: overload duration, so a short window understates the damage.
OFF_DURATION_MS = 1500.0
HOT_REGION = "us-east1"
HOT_WEIGHT = 4.0


def _history_from(harness: OpenLoopHarness) -> History:
    """Convert the harness's per-request records into a History."""
    history = History()
    for rec in harness.records:
        good = rec["status"] == "good"
        history.record(OpRecord(
            client=rec["client"], kind=rec["kind"], key=rec["key"],
            start_ms=rec["start_ms"], end_ms=rec["end_ms"],
            status=OK if good else FAIL,
            error="" if good else str(rec["status"])))
    return history


def _probe_all(harness: OpenLoopHarness) -> Dict[str, float]:
    """Post-drain recovery probes: one protected read per region.

    Returns region -> latency_ms (``inf`` when the probe never
    completed — the livelock signature)."""
    sim = harness.sim
    procs = {region: sim.spawn(harness.probe(region),
                               name=f"recovery-probe-{region}")
             for region in harness.config.regions}
    sim.run(until=sim.now + 10.0 * PROBE_BOUND_MS)
    return {region: (proc.value if proc.done else float("inf"))
            for region, proc in procs.items()}


def _check(report: InvariantReport, ok: bool, text: str) -> None:
    if ok:
        report.checks_run.append(text)
    else:
        report.violations.append(text)


def overload_global(seed: int = 0) -> ScenarioResult:
    """4x global saturation with admission on, plus the ablation.

    Three deterministic runs: a 1x reference (measures capacity), the
    4x admission-on run under audit, and a 4x admission-off baseline
    that must collapse."""
    base = OpenLoopHarness(OpenLoopConfig(
        load_multiplier=1.0, duration_ms=ON_DURATION_MS, seed=seed)).run()

    on_harness = OpenLoopHarness(OpenLoopConfig(
        load_multiplier=PEAK_MULTIPLIER, duration_ms=ON_DURATION_MS,
        seed=seed), record_ops=True)
    on = on_harness.run()
    probes = _probe_all(on_harness)

    off = OpenLoopHarness(OpenLoopConfig(
        load_multiplier=PEAK_MULTIPLIER, admission=False,
        duration_ms=OFF_DURATION_MS, seed=seed)).run()

    capacity = max(base.goodput_per_s, on.goodput_per_s)
    goodput_ratio = on.goodput_per_s / capacity if capacity else 0.0
    collapse_ratio = off.goodput_per_s / capacity if capacity else 0.0
    deadline_ms = on.config.deadline_ms
    worst_probe = max(probes.values())

    report = InvariantReport()
    _check(report, goodput_ratio >= GOODPUT_FLOOR,
           f"goodput holds at {PEAK_MULTIPLIER:g}x load: "
           f"{on.goodput_per_s:.0f}/s is {goodput_ratio:.0%} of capacity "
           f"{capacity:.0f}/s (floor {GOODPUT_FLOOR:.0%})")
    _check(report, on.p99_ms <= deadline_ms,
           f"admitted p99 bounded: {on.p99_ms:.1f}ms <= "
           f"deadline {deadline_ms:.0f}ms")
    _check(report, worst_probe <= PROBE_BOUND_MS,
           f"no livelock after load drop: worst recovery probe "
           f"{worst_probe:.1f}ms <= {PROBE_BOUND_MS:.0f}ms")
    _check(report, collapse_ratio < COLLAPSE_CEILING,
           f"congestion collapse without admission: "
           f"{off.goodput_per_s:.0f}/s is {collapse_ratio:.0%} of capacity "
           f"(ceiling {COLLAPSE_CEILING:.0%})")

    timeline = [
        (on_harness.load_start_ms, "inject",
         f"open-loop {PEAK_MULTIPLIER:g}x saturation ({on.users} users)"),
        (on_harness.load_end_ms, "heal", "arrivals stop"),
    ]
    stats = {
        "capacity_per_s": round(capacity, 1),
        "goodput_per_s": round(on.goodput_per_s, 1),
        "goodput_ratio": round(goodput_ratio, 3),
        "p50_ms": round(on.p50_ms, 2),
        "p99_ms": round(on.p99_ms, 2),
        "offered": on.offered,
        "rejected": on.rejected,
        "shed": on.shed,
        "probe_worst_ms": round(worst_probe, 2),
        "no_admission_goodput_per_s": round(off.goodput_per_s, 1),
        "collapse_ratio": round(collapse_ratio, 3),
    }
    return ScenarioResult(
        name="overload-global", seed=seed,
        history=_history_from(on_harness), report=report,
        nemesis_timeline=timeline, final_values={},
        duration_ms=on.duration_ms, stats=stats,
        metrics_snapshot=on_harness.sim.obs.registry.snapshot())


def overload_hot_region(seed: int = 0) -> ScenarioResult:
    """One region at 4x capacity while the others run at 1x.

    The hot region must degrade gracefully (goodput pinned near its
    gateway admit rate, admitted p99 inside the deadline) and the load
    must stay *isolated*: the cold regions' p99 stays far below the
    deadline because their gateways, stores, and retry budgets are
    per-region."""
    config = OpenLoopConfig(
        region_weights={HOT_REGION: HOT_WEIGHT},
        duration_ms=ON_DURATION_MS, seed=seed)
    harness = OpenLoopHarness(config, record_ops=True)
    result = harness.run()
    probes = _probe_all(harness)

    hot = result.per_region[HOT_REGION]
    hot_lat = sorted(hot.latencies)
    hot_goodput = hot.good * 1000.0 / result.duration_ms
    hot_p99 = nearest_rank(hot_lat, 99.0)
    admit_rate = config.admit_rate_per_s
    deadline_ms = config.deadline_ms
    cold_regions = [r for r in config.regions if r != HOT_REGION]
    cold_p99 = {region: nearest_rank(
                    sorted(result.per_region[region].latencies), 99.0)
                for region in cold_regions}
    worst_cold_p99 = max(cold_p99.values())
    cold_bound_ms = deadline_ms / 2.0
    worst_probe = max(probes.values())

    report = InvariantReport()
    _check(report, hot_goodput >= GOODPUT_FLOOR * admit_rate,
           f"hot region goodput holds: {hot_goodput:.0f}/s >= "
           f"{GOODPUT_FLOOR:.0%} of its {admit_rate:.0f}/s admit rate")
    _check(report, hot_p99 <= deadline_ms,
           f"hot region admitted p99 bounded: {hot_p99:.1f}ms <= "
           f"deadline {deadline_ms:.0f}ms")
    _check(report, worst_cold_p99 <= cold_bound_ms,
           f"overload stays isolated: worst cold-region p99 "
           f"{worst_cold_p99:.1f}ms <= {cold_bound_ms:.0f}ms")
    _check(report, worst_probe <= PROBE_BOUND_MS,
           f"no livelock after load drop: worst recovery probe "
           f"{worst_probe:.1f}ms <= {PROBE_BOUND_MS:.0f}ms")

    timeline = [
        (harness.load_start_ms, "inject",
         f"hot region {HOT_REGION} at {HOT_WEIGHT:g}x"),
        (harness.load_end_ms, "heal", "arrivals stop"),
    ]
    stats = {
        "hot_goodput_per_s": round(hot_goodput, 1),
        "hot_p99_ms": round(hot_p99, 2),
        "hot_rejected": hot.rejected,
        "hot_shed": hot.shed,
        "worst_cold_p99_ms": round(worst_cold_p99, 2),
        "offered": result.offered,
        "goodput_per_s": round(result.goodput_per_s, 1),
        "probe_worst_ms": round(worst_probe, 2),
    }
    return ScenarioResult(
        name="overload-hot-region", seed=seed,
        history=_history_from(harness), report=report,
        nemesis_timeline=timeline, final_values={},
        duration_ms=result.duration_ms, stats=stats,
        metrics_snapshot=harness.sim.obs.registry.snapshot())
