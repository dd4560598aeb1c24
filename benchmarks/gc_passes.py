"""Where a benchmark repetition's garbage collections fall.

``bench/run.py`` times each repetition with the collector on, after one
``gc.collect()``.  CPython runs a full (generation 2) collection at
about the 121st generation-0 pass after that, and over a whole
cluster's objects it costs as much as a third of a ``kv`` repetition —
so a change that adds a few generation-0 passes to the timed region (or
to set-up before it) can move that collection across the region's edge
and shift ``ops_per_s`` by tens of percent with no change in the work
done.  This script counts the passes on either side of the edge, from
outside ``bench/``:

    python3 benchmarks/gc_passes.py --workload kv --seed 0 --reps 3

prints, per repetition, the generation 0/1/2 passes in set-up and in the
timed region.  A generation-0 pass happens every 700 net allocations of
container objects, so the counts are a direct read of how many objects
the region allocates and keeps.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench import run as bench_run  # noqa: E402  (puts src/ on the path)
from bench.workloads import WORKLOADS  # noqa: E402


def count_passes(name: str, seed: int, reps: int):
    workload = WORKLOADS[name](1.0)
    phase = ["idle"]
    rows = []
    counts = {}

    def on_gc(when: str, info: dict) -> None:
        if when == "start":
            key = (phase[0], info["generation"])
            counts[key] = counts.get(key, 0) + 1

    setup, run = workload.setup, workload.run

    def timed_setup(inputs, sub_seed):
        phase[0] = "setup"
        return setup(inputs, sub_seed)

    def timed_run(state, inputs, mark, lap):
        phase[0] = "timed"
        try:
            return run(state, inputs, mark, lap)
        finally:
            phase[0] = "after"

    workload.setup, workload.run = timed_setup, timed_run
    gc.callbacks.append(on_gc)
    try:
        for rep in range(reps):
            counts.clear()
            phase[0] = "idle"
            bench_run.run_rep(workload, seed * 1000 + rep)
            rows.append({
                where: [counts.get((where, gen), 0) for gen in (0, 1, 2)]
                for where in ("setup", "timed", "after")})
    finally:
        gc.callbacks.remove(on_gc)
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="kv", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args()
    print(f"{args.workload} seed={args.seed}: generation 0/1/2 passes")
    for rep, row in enumerate(count_passes(args.workload, args.seed,
                                           args.reps)):
        print(f"  rep {rep}: set-up {row['setup']}  timed {row['timed']}  "
              f"closing calibration {row['after']}")


if __name__ == "__main__":
    main()
