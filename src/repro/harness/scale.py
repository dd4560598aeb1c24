"""The users-vs-p50/p99/goodput scale-curve experiment.

Sweeps the open-loop load multiplier with admission control on, plus a
congestion-collapse baseline (same offered load and store capacity,
protections off), and evaluates the graceful-degradation gates the
overload chaos scenarios assert:

* at the peak (4x) multiplier, goodput stays >= 80% of the measured
  capacity (the best goodput seen anywhere on the admission-on curve);
* admitted-request p99 stays within the request deadline;
* without admission the same load demonstrably collapses (goodput
  under 50% of capacity).

Everything is deterministic from the seed, so ``SCALE_results.json``
at the repo root pins the quick (smoke) sweep *exactly*, per seed; CI's
``overload-smoke`` job re-runs ``python -m repro scale --smoke`` and
any drift in any number on the curve is a fingerprint mismatch.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .golden import repo_path
from .openloop import OpenLoopConfig, run_openloop

__all__ = ["run_scale", "render_scale", "run_scale_suite",
           "render_scale_suite", "golden_entries",
           "DEFAULT_MULTIPLIERS", "QUICK_MULTIPLIERS", "GOLDEN_PATH",
           "GOLDEN_SEEDS"]

DEFAULT_MULTIPLIERS = (0.5, 1.0, 2.0, 4.0)
QUICK_MULTIPLIERS = (1.0, 4.0)
#: Full-run / quick-run arrival windows.  The collapse baseline needs a
#: window long enough for the unprotected backlog to visibly swamp the
#: deadline (the backlog grows linearly in the overload duration).
FULL_DURATION_MS = 2000.0
QUICK_DURATION_MS = 1500.0

GOLDEN_PATH = repo_path("SCALE_results.json")
GOLDEN_SEEDS = (0,)

#: Graceful-degradation gate thresholds (asserted here and by the
#: overload chaos scenarios).
GOODPUT_FLOOR = 0.80
COLLAPSE_CEILING = 0.50

#: The diurnal curve point: 1x offered load modulated by a +/-60%
#: sinusoid with two "days" per arrival window, seeded per-region
#: phases (follow-the-sun peaks).  Admission must still hold p99
#: within the deadline through the regional peaks.
DIURNAL_AMPLITUDE = 0.6


def _point(multiplier: float, admission: bool, seed: int,
           duration_ms: float) -> Dict:
    result = run_openloop(OpenLoopConfig(
        load_multiplier=multiplier, admission=admission,
        duration_ms=duration_ms, seed=seed))
    return result.to_json()


def run_scale(seed: int = 0, quick: bool = False,
              multipliers: Optional[List[float]] = None) -> Dict:
    """Run the sweep; returns a JSON-ready document with gates."""
    if multipliers is None:
        multipliers = list(QUICK_MULTIPLIERS if quick
                           else DEFAULT_MULTIPLIERS)
    duration_ms = QUICK_DURATION_MS if quick else FULL_DURATION_MS
    config = OpenLoopConfig()
    curve = [_point(m, True, seed, duration_ms) for m in multipliers]
    peak_multiplier = multipliers[-1]
    no_admission = _point(peak_multiplier, False, seed, duration_ms)
    diurnal = run_openloop(OpenLoopConfig(
        load_multiplier=1.0, admission=True, duration_ms=duration_ms,
        seed=seed, diurnal_amplitude=DIURNAL_AMPLITUDE,
        diurnal_period_ms=duration_ms / 2.0)).to_json()

    capacity = max(point["goodput_per_s"] for point in curve)
    peak = curve[-1]
    goodput_ratio = (peak["goodput_per_s"] / capacity) if capacity else 0.0
    collapse_ratio = ((no_admission["goodput_per_s"] / capacity)
                      if capacity else 0.0)
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
    }
    gates["ok"] = (gates["goodput_holds"] and gates["p99_bounded"]
                   and gates["collapses_without_admission"])
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
    gates = doc["gates"]
    lines.append(
        f"  capacity={gates['capacity_per_s']:.1f}/s  "
        f"goodput@{gates['peak_multiplier']:g}x="
        f"{gates['goodput_ratio_at_peak']:.0%} "
        f"[{'pass' if gates['goodput_holds'] else 'FAIL'}]  "
        f"p99@peak={gates['p99_at_peak_ms']:.1f}ms "
        f"[{'pass' if gates['p99_bounded'] else 'FAIL'}]  "
        f"no-admission={gates['collapse_ratio']:.0%} of capacity "
        f"[{'collapses' if gates['collapses_without_admission'] else 'FAIL'}]")
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
