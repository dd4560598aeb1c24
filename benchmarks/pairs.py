"""Judge a host-time claim: alternating pairs of benchmark runs, this
checkout against another.

    python3 benchmarks/pairs.py --compare ../parent --workload verify_sweep \\
        --seeds 0,11 --pairs 10 --metric ops_per_s [--seconds 6] [--json OUT]

For each seed it runs the benchmark's own command, ``python3
bench/run.py --workload W --seed S --seconds N --trace 0``, once in the
other checkout (the *parent*) and once in this one (the *change*): one
pair.  One process runs at a time, and the pairs alternate which
checkout goes first, so drift in the host's load falls on both sides.
This script is the launcher and imports nothing beyond the standard
library, so what it holds cannot leak into a child's ``peak_rss_mb``
(``ru_maxrss`` is inherited across ``fork``).

It prints every pair, both medians, the parent's interquartile range
(the distance between the quartiles of the parent's runs) and how many
pairs the change won, then a verdict per seed:

* ``claim met`` — at least nine in ten pairs won, and the median moved
  the better way by more than the parent's interquartile range;
* ``no claim`` — anything else, and always with fewer than five pairs.

The last line is the overall verdict: ``claim met`` only when every
seed's is.  ``--json`` writes the same figures, and every end-to-end
metric of every run beside them.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent

#: Fewer pairs than this never make a claim.
MIN_PAIRS = 5


def better_ways() -> Dict[str, str]:
    """End-to-end metric -> "higher" or "lower", as BENCHMARK.json says."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {row["name"]: row["better"] for row in spec["end_to_end"]}


def bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``: its result line's metrics."""
    command = [sys.executable, "bench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True, timeout=900)
    lines = done.stdout.rstrip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(command)} exited "
                         f"{done.returncode}\n{done.stdout}{done.stderr}")
    result = json.loads(lines[-1])
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def judge(parent: List[float], change: List[float], better: str) -> dict:
    """The claim rule over one seed's pairs."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    parent_median = statistics.median(parent)
    change_median = statistics.median(change)
    iqr = 0.0
    if len(parent) >= 2:
        q1, _q2, q3 = statistics.quantiles(parent, n=4, method="inclusive")
        iqr = q3 - q1
    gap = sign * (change_median - parent_median)
    met = (len(parent) >= MIN_PAIRS and wins * 10 >= 9 * len(parent)
           and gap > iqr)
    return {"parent_median": parent_median, "change_median": change_median,
            "parent_iqr": iqr, "gap": gap, "wins": wins,
            "pairs": len(parent),
            "verdict": "claim met" if met else "no claim"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", metavar="PATH", required=True,
                        help="the other (parent) checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0,11",
                        help="comma-separated benchmark seeds")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--metric", default="ops_per_s")
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--json", metavar="OUT")
    args = parser.parse_args(argv)
    better = better_ways().get(args.metric)
    if better is None:
        parser.error(f"--metric must be one of {sorted(better_ways())}")
    checkouts = {"parent": Path(args.compare).resolve(), "change": ROOT}
    seeds = [int(s) for s in args.seeds.split(",")]
    print(f"{args.workload} {args.metric} ({better} is better): "
          f"{checkouts['change']} against {checkouts['parent']}")
    document = {"workload": args.workload, "metric": args.metric,
                "better": better, "seconds": args.seconds, "seeds": {}}
    for seed in seeds:
        runs: Dict[str, List[float]] = {"parent": [], "change": []}
        pairs = []
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else (
                "change", "parent")
            pair = {"first": order[0]}
            for side in order:
                pair[f"{side}_metrics"] = metrics = bench(
                    checkouts[side], args.workload, seed, args.seconds)
                pair[side] = metrics[args.metric]
                runs[side].append(metrics[args.metric])
            pairs.append(pair)
            print(f"  seed {seed} pair {k}: parent {pair['parent']:.4f}  "
                  f"change {pair['change']:.4f}  ({order[0]} first)",
                  flush=True)
        verdict = judge(runs["parent"], runs["change"], better)
        verdict["runs"] = pairs
        document["seeds"][str(seed)] = verdict
        print(f"  seed {seed}: median parent {verdict['parent_median']:.4f}"
              f"  change {verdict['change_median']:.4f}  "
              f"(gap {verdict['gap']:+.4f}, parent IQR "
              f"{verdict['parent_iqr']:.4f})  won {verdict['wins']}/"
              f"{verdict['pairs']}: {verdict['verdict']}", flush=True)
    met = all(v["verdict"] == "claim met" for v in document["seeds"].values())
    document["verdict"] = "claim met" if met else "no claim"
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(f"verdict: {document['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
