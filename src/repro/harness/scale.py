"""The users-vs-p50/p99/goodput scale-curve experiment.

Load is the nemesis here.  The sweep runs the open-loop harness over
the load multipliers with admission control on, plus three more legs:
a congestion-collapse baseline (the peak offered load against the same
store capacity, protections off), a diurnal leg (1x load under a
follow-the-sun sinusoid) and a hot-region leg (us-east1 at 4x while
the other regions stay at 1x).  Every leg with admission on is probed
after it drains: one protected read per region.  Seven
graceful-degradation gates judge the legs:

* at the peak (4x) multiplier, goodput stays >= 80% of the measured
  capacity (the best goodput seen anywhere on the admission-on curve);
* admitted-request p99 at the peak stays within the request deadline;
* without admission the same load demonstrably collapses (goodput
  under 50% of capacity);
* no livelock after the load drops: every post-drain probe completes
  within 100 ms (metastable failures, such as retry storms that outlive
  their trigger, would fail it);
* the hot region's goodput stays >= 80% of its gateway admit rate;
* the hot region's admitted p99 stays within the deadline;
* the overload stays isolated: every cold region's p99 stays under half
  the deadline, because gateways, stores and retry budgets are
  per-region.

Everything is deterministic from the seed, so ``SCALE_results.json``
at the repo root pins the quick (smoke) sweep *exactly*, per seed; CI's
``overload-smoke`` job re-runs ``python -m repro scale --smoke`` and
any drift in any number on the curve is a fingerprint mismatch.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .golden import repo_path
from .openloop import OpenLoopConfig, OpenLoopHarness

__all__ = ["run_scale", "render_scale", "run_scale_suite",
           "render_scale_suite", "golden_entries",
           "DEFAULT_MULTIPLIERS", "QUICK_MULTIPLIERS", "GOLDEN_PATH",
           "GOLDEN_SEEDS", "GATES"]

DEFAULT_MULTIPLIERS = (0.5, 1.0, 2.0, 4.0)
QUICK_MULTIPLIERS = (1.0, 4.0)
#: Full-run / quick-run arrival windows.  The collapse baseline needs a
#: window long enough for the unprotected backlog to visibly swamp the
#: deadline (the backlog grows linearly in the overload duration).
FULL_DURATION_MS = 2000.0
QUICK_DURATION_MS = 1500.0

GOLDEN_PATH = repo_path("SCALE_results.json")
GOLDEN_SEEDS = (0,)

#: Graceful-degradation gate thresholds.
GOODPUT_FLOOR = 0.80
COLLAPSE_CEILING = 0.50
#: A post-drain probe slower than this indicates residual livelock
#: (the unloaded baseline read is single-digit milliseconds).
PROBE_BOUND_MS = 100.0

#: The diurnal curve point: 1x offered load modulated by a +/-60%
#: sinusoid with two "days" per arrival window, seeded per-region
#: phases (follow-the-sun peaks).  Admission must still hold p99
#: within the deadline through the regional peaks.
DIURNAL_AMPLITUDE = 0.6

#: The hot-region leg: this region at this weight, the others at 1x.
HOT_REGION = "us-east1"
HOT_WEIGHT = 4.0

#: The seven pass/fail entries of a document's ``gates``; ``ok`` is
#: their AND.
GATES = ("goodput_holds", "p99_bounded", "collapses_without_admission",
         "no_livelock", "hot_region_goodput_holds",
         "hot_region_p99_bounded", "overload_isolated")


def _leg(config: OpenLoopConfig) -> Dict:
    """One open-loop run's document.  A leg with admission on is then
    probed once it has drained, one protected read per region; the
    slowest probe is its ``probe_worst_ms`` (``inf`` when one never
    completed — the livelock signature)."""
    harness = OpenLoopHarness(config)
    doc = harness.run().to_json()
    if config.admission:
        sim = harness.sim
        probes = [sim.spawn(harness.probe(region),
                            name=f"recovery-probe-{region}")
                  for region in config.regions]
        sim.run(until=sim.now + 10.0 * PROBE_BOUND_MS)
        doc["probe_worst_ms"] = round(max(
            probe.value if probe.done else float("inf")
            for probe in probes), 2)
    return doc


def run_scale(seed: int = 0, quick: bool = False,
              multipliers: Optional[List[float]] = None) -> Dict:
    """Run the sweep; returns a JSON-ready document with gates."""
    if multipliers is None:
        multipliers = list(QUICK_MULTIPLIERS if quick
                           else DEFAULT_MULTIPLIERS)
    duration_ms = QUICK_DURATION_MS if quick else FULL_DURATION_MS
    config = OpenLoopConfig()
    curve = [_leg(OpenLoopConfig(load_multiplier=m, duration_ms=duration_ms,
                                 seed=seed))
             for m in multipliers]
    peak_multiplier = multipliers[-1]
    no_admission = _leg(OpenLoopConfig(
        load_multiplier=peak_multiplier, admission=False,
        duration_ms=duration_ms, seed=seed))
    diurnal = _leg(OpenLoopConfig(
        duration_ms=duration_ms, seed=seed,
        diurnal_amplitude=DIURNAL_AMPLITUDE,
        diurnal_period_ms=duration_ms / 2.0))
    hot_leg = _leg(OpenLoopConfig(
        region_weights={HOT_REGION: HOT_WEIGHT}, duration_ms=duration_ms,
        seed=seed))

    capacity = max(point["goodput_per_s"] for point in curve)
    peak = curve[-1]
    goodput_ratio = (peak["goodput_per_s"] / capacity) if capacity else 0.0
    collapse_ratio = ((no_admission["goodput_per_s"] / capacity)
                      if capacity else 0.0)
    hot = hot_leg["regions"][HOT_REGION]
    hot_goodput = round(hot["good"] * 1000.0 / duration_ms, 1)
    worst_cold_p99 = max(stats["p99_ms"]
                         for region, stats in hot_leg["regions"].items()
                         if region != HOT_REGION)
    probe_worst = max(leg["probe_worst_ms"]
                      for leg in curve + [diurnal, hot_leg])
    gates = {
        "capacity_per_s": capacity,
        "peak_multiplier": peak_multiplier,
        "goodput_ratio_at_peak": round(goodput_ratio, 3),
        "goodput_holds": goodput_ratio >= GOODPUT_FLOOR,
        "p99_at_peak_ms": peak["p99_ms"],
        "p99_bounded": peak["p99_ms"] <= config.deadline_ms,
        "no_admission_goodput_per_s": no_admission["goodput_per_s"],
        "collapse_ratio": round(collapse_ratio, 3),
        "collapses_without_admission": collapse_ratio < COLLAPSE_CEILING,
        "probe_worst_ms": probe_worst,
        "no_livelock": probe_worst <= PROBE_BOUND_MS,
        "hot_region_goodput_holds":
            hot_goodput >= GOODPUT_FLOOR * config.admit_rate_per_s,
        "hot_region_p99_bounded": hot["p99_ms"] <= config.deadline_ms,
        "overload_isolated": worst_cold_p99 <= config.deadline_ms / 2.0,
    }
    gates["ok"] = all(gates[name] for name in GATES)
    return {
        "seed": seed,
        "quick": quick,
        "duration_ms": duration_ms,
        "deadline_ms": config.deadline_ms,
        "store_capacity_per_region_per_s": config.store_capacity_per_s,
        "admit_rate_per_region_per_s": config.admit_rate_per_s,
        "curve": curve,
        "no_admission": no_admission,
        "diurnal": {"amplitude": DIURNAL_AMPLITUDE,
                    "period_ms": duration_ms / 2.0,
                    "point": diurnal},
        "hot_region": {"region": HOT_REGION, "weight": HOT_WEIGHT,
                       "goodput_per_s": hot_goodput,
                       "worst_cold_p99_ms": worst_cold_p99,
                       "point": hot_leg},
        "gates": gates,
    }


def render_scale(doc: Dict) -> str:
    """Human-readable table for the CLI."""
    lines = [
        f"scale sweep (seed={doc['seed']}, "
        f"duration={doc['duration_ms']:.0f}ms sim, "
        f"deadline={doc['deadline_ms']:.0f}ms)",
        f"  {'users':>7} {'mult':>5} {'adm':>4} {'offered':>8} "
        f"{'good':>7} {'rej':>6} {'shed':>5} {'goodput/s':>10} "
        f"{'p50ms':>8} {'p99ms':>8}",
    ]
    for point in doc["curve"] + [doc["no_admission"]]:
        lines.append(
            f"  {point['users']:>7} {point['multiplier']:>5.2g} "
            f"{'on' if point['admission'] else 'off':>4} "
            f"{point['offered']:>8} {point['good']:>7} "
            f"{point['rejected']:>6} {point['shed']:>5} "
            f"{point['goodput_per_s']:>10.1f} {point['p50_ms']:>8.2f} "
            f"{point['p99_ms']:>8.2f}")
    point = doc["diurnal"]["point"]
    lines.append(
        f"  diurnal 1x (+/-{doc['diurnal']['amplitude']:.0%}, "
        f"period {doc['diurnal']['period_ms']:.0f}ms): "
        f"offered={point['offered']} good={point['good']} "
        f"goodput={point['goodput_per_s']:.1f}/s "
        f"p50={point['p50_ms']:.2f}ms p99={point['p99_ms']:.2f}ms")
    hot = doc["hot_region"]
    region = hot["point"]["regions"][hot["region"]]
    lines.append(
        f"  hot region {hot['region']} {hot['weight']:g}x: "
        f"offered={region['offered']} good={region['good']} "
        f"goodput={hot['goodput_per_s']:.1f}/s "
        f"p99={region['p99_ms']:.2f}ms; "
        f"worst cold p99={hot['worst_cold_p99_ms']:.2f}ms")
    gates = doc["gates"]

    def verdict(name: str, passed: str = "pass") -> str:
        return f"[{passed if gates[name] else 'FAIL'}]"

    lines.append(
        f"  capacity={gates['capacity_per_s']:.1f}/s  "
        f"goodput@{gates['peak_multiplier']:g}x="
        f"{gates['goodput_ratio_at_peak']:.0%} "
        f"{verdict('goodput_holds')}  "
        f"p99@peak={gates['p99_at_peak_ms']:.1f}ms "
        f"{verdict('p99_bounded')}  "
        f"no-admission={gates['collapse_ratio']:.0%} of capacity "
        f"{verdict('collapses_without_admission', 'collapses')}")
    lines.append(
        f"  worst probe={gates['probe_worst_ms']:.1f}ms "
        f"{verdict('no_livelock')}  "
        f"hot goodput {verdict('hot_region_goodput_holds')}  "
        f"hot p99 {verdict('hot_region_p99_bounded')}  "
        f"cold p99 {verdict('overload_isolated', 'isolated')}")
    lines.append(f"  => {'OK' if gates['ok'] else 'GATE FAILURES'}")
    return "\n".join(lines)


def run_scale_suite(seeds) -> Dict:
    """The smoke suite: one quick sweep per seed (the golden pins 0)."""
    runs = {str(seed): run_scale(seed=seed, quick=True) for seed in seeds}
    return {"ok": all(doc["gates"]["ok"] for doc in runs.values()),
            "runs": runs}


def golden_entries(suite: Dict) -> Dict:
    """A quick sweep is its own fingerprint: every field is exact."""
    return {("smoke", seed): doc for seed, doc in suite["runs"].items()}


def render_scale_suite(suite: Dict) -> str:
    return "\n\n".join(render_scale(doc)
                       for doc in suite["runs"].values())
