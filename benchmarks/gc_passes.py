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

    python3 benchmarks/gc_passes.py --workload tpcc --compare ../parent

also runs the same script in another checkout (here ``../parent``) and
prints its placement under each of this checkout's rows, so a change's
reading of ``ops_per_s`` can be told apart from a collection that moved.
"""

from __future__ import annotations

import argparse
import gc
import subprocess
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


def placement(row) -> str:
    return (f"set-up {row['setup']}  timed {row['timed']}  "
            f"closing calibration {row['after']}")


def compared_rows(checkout: str, args) -> list:
    """The per-repetition placements this script prints when run in
    ``checkout`` with the same workload, seed and repetitions."""
    script = Path(checkout).resolve() / "benchmarks" / "gc_passes.py"
    out = subprocess.run(
        [sys.executable, str(script), "--workload", args.workload,
         "--seed", str(args.seed), "--reps", str(args.reps)],
        capture_output=True, text=True, check=True).stdout
    return [line.split(": ", 1)[1] for line in out.splitlines()
            if line.startswith("  rep ")]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="kv", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--compare", metavar="PATH",
                        help="another checkout to run beside this one")
    args = parser.parse_args()
    rows = [placement(row) for row in count_passes(
        args.workload, args.seed, args.reps)]
    other = compared_rows(args.compare, args) if args.compare else None
    print(f"{args.workload} seed={args.seed}: generation 0/1/2 passes")
    for rep, row in enumerate(rows):
        if other is None:
            print(f"  rep {rep}: {row}")
        else:
            print(f"  rep {rep}: this  {row}\n"
                  f"         other {other[rep]}")


if __name__ == "__main__":
    main()
