"""Overload scenarios: graceful degradation under saturation.

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
Run one with ``python -m repro overload <scenario|all|list>``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from ..harness.openloop import OpenLoopConfig, OpenLoopHarness
from ..harness.scale import COLLAPSE_CEILING, GOODPUT_FLOOR
from ..obs import nearest_rank

__all__ = ["SCENARIOS", "overload_global", "overload_hot_region",
           "render_overload", "GOODPUT_FLOOR", "COLLAPSE_CEILING",
           "PROBE_BOUND_MS"]

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


def _document(name: str, seed: int, checks: List[Tuple[bool, str]],
              harness: OpenLoopHarness, load: str, duration_ms: float,
              stats: Dict[str, Any]) -> Dict[str, Any]:
    """The run's JSON document: ``checks`` are (held, statement) pairs,
    and ``load`` runs from the harness's load start to its end."""
    return {
        "scenario": name,
        "seed": seed,
        "ok": all(held for held, _text in checks),
        "duration_ms": round(duration_ms, 1),
        "stats": stats,
        "checks_run": [text for held, text in checks if held],
        "violations": [text for held, text in checks if not held],
        "nemesis_timeline": [
            {"at_ms": round(harness.load_start_ms, 1), "action": "inject",
             "fault": load},
            {"at_ms": round(harness.load_end_ms, 1), "action": "heal",
             "fault": "arrivals stop"}],
    }


def render_overload(doc: Dict[str, Any]) -> str:
    lines = [
        f"overload scenario {doc['scenario']!r} (seed={doc['seed']}) — "
        f"{doc['duration_ms']:.0f}ms sim",
        "  stats: " + ", ".join(
            f"{key}={value}" for key, value in sorted(doc["stats"].items())),
        "  load: " + "; ".join(
            f"{event['action']} {event['fault']} at {event['at_ms']:.0f}ms"
            for event in doc["nemesis_timeline"]),
        "invariants:",
    ]
    lines += [f"  [pass] {text}" for text in doc["checks_run"]]
    lines += [f"  [FAIL] {text}" for text in doc["violations"]]
    lines.append("  => " + ("OK" if doc["ok"] else "INVARIANT VIOLATIONS"))
    return "\n".join(lines)


def overload_global(seed: int = 0) -> Dict[str, Any]:
    """4x global saturation with admission on, plus the ablation.

    Three deterministic runs: a 1x reference (measures capacity), the
    4x admission-on run under audit, and a 4x admission-off baseline
    that must collapse."""
    base = OpenLoopHarness(OpenLoopConfig(
        load_multiplier=1.0, duration_ms=ON_DURATION_MS, seed=seed)).run()

    on_harness = OpenLoopHarness(OpenLoopConfig(
        load_multiplier=PEAK_MULTIPLIER, duration_ms=ON_DURATION_MS,
        seed=seed))
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

    checks = [
        (goodput_ratio >= GOODPUT_FLOOR,
         f"goodput holds at {PEAK_MULTIPLIER:g}x load: "
         f"{on.goodput_per_s:.0f}/s is {goodput_ratio:.0%} of capacity "
         f"{capacity:.0f}/s (floor {GOODPUT_FLOOR:.0%})"),
        (on.p99_ms <= deadline_ms,
         f"admitted p99 bounded: {on.p99_ms:.1f}ms <= "
         f"deadline {deadline_ms:.0f}ms"),
        (worst_probe <= PROBE_BOUND_MS,
         f"no livelock after load drop: worst recovery probe "
         f"{worst_probe:.1f}ms <= {PROBE_BOUND_MS:.0f}ms"),
        (collapse_ratio < COLLAPSE_CEILING,
         f"congestion collapse without admission: "
         f"{off.goodput_per_s:.0f}/s is {collapse_ratio:.0%} of capacity "
         f"(ceiling {COLLAPSE_CEILING:.0%})"),
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
    return _document(
        "overload-global", seed, checks, on_harness,
        f"open-loop {PEAK_MULTIPLIER:g}x saturation ({on.users} users)",
        on.duration_ms, stats)


def overload_hot_region(seed: int = 0) -> Dict[str, Any]:
    """One region at 4x capacity while the others run at 1x.

    The hot region must degrade gracefully (goodput pinned near its
    gateway admit rate, admitted p99 inside the deadline) and the load
    must stay *isolated*: the cold regions' p99 stays far below the
    deadline because their gateways, stores, and retry budgets are
    per-region."""
    config = OpenLoopConfig(
        region_weights={HOT_REGION: HOT_WEIGHT},
        duration_ms=ON_DURATION_MS, seed=seed)
    harness = OpenLoopHarness(config)
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

    checks = [
        (hot_goodput >= GOODPUT_FLOOR * admit_rate,
         f"hot region goodput holds: {hot_goodput:.0f}/s >= "
         f"{GOODPUT_FLOOR:.0%} of its {admit_rate:.0f}/s admit rate"),
        (hot_p99 <= deadline_ms,
         f"hot region admitted p99 bounded: {hot_p99:.1f}ms <= "
         f"deadline {deadline_ms:.0f}ms"),
        (worst_cold_p99 <= cold_bound_ms,
         f"overload stays isolated: worst cold-region p99 "
         f"{worst_cold_p99:.1f}ms <= {cold_bound_ms:.0f}ms"),
        (worst_probe <= PROBE_BOUND_MS,
         f"no livelock after load drop: worst recovery probe "
         f"{worst_probe:.1f}ms <= {PROBE_BOUND_MS:.0f}ms"),
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
    return _document(
        "overload-hot-region", seed, checks, harness,
        f"hot region {HOT_REGION} at {HOT_WEIGHT:g}x",
        result.duration_ms, stats)


#: Scenario name -> seed -> the run's document, in listing order.
SCENARIOS = {"overload-global": overload_global,
             "overload-hot-region": overload_hot_region}
