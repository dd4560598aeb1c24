"""What a benchmark repetition's timed region leaves on the heap.

Every object the timed region allocates and keeps is scanned again by
each later generation-2 collection, so a heap that grows with every
operation makes a long run pay more per operation as it goes (see
``gc_passes.py`` for where those collections fall).  This script counts
what is kept, from outside ``bench/``:

    python3 benchmarks/heap_growth.py --workload kv --seed 0 --reps 1

prints, per repetition:

* tracked objects per op — ``len(gc.get_objects())`` after a full
  collection at the end of the timed region, less the same count at its
  start, over the repetition's operations;
* traced bytes kept per op — what ``tracemalloc`` (started with the
  timed region) still holds after that collection, over the operations;
* the transactions left in ``Cluster.txn_registry`` at the end of the
  run, summed over the repetition's clusters;

and, once, the process's peak resident set (``ru_maxrss``, the figure
``bench/run.py`` reports as ``peak_rss_mb``) at three points: after the
imports, after the first repetition's set-up (both before
``tracemalloc`` starts) and at the end.  The first is the fixed cost of
the interpreter and the imported modules, so ``peak_rss_mb`` reads as
that plus growth; the last includes ``tracemalloc``'s own bookkeeping.

``tracemalloc`` slows the run several times over, so the host-time
metrics of ``bench/run.py`` mean nothing here; the simulation itself is
unchanged.

    python3 benchmarks/heap_growth.py --workload tpcc --compare ../parent

also runs this script over another checkout's code (here ``../parent``)
and prints its row under each of this checkout's.
"""

from __future__ import annotations

import argparse
import gc
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def census(root: Path, name: str, seed: int, reps: int):
    sys.path.insert(0, str(root))
    from bench import run as bench_run  # puts the checkout's src/ on the path
    from bench.workloads import WORKLOADS
    from repro.cluster.topology import Cluster

    rss = {"after imports": peak_rss_mb()}
    workload = WORKLOADS[name](1.0)
    rows = []
    run = workload.run

    def counted_run(state, inputs, mark, lap):
        rss.setdefault("after set-up", peak_rss_mb())
        gc.collect()
        objects = len(gc.get_objects())
        tracemalloc.start()
        try:
            result = run(state, inputs, mark, lap)
            gc.collect()
            kept_bytes = tracemalloc.get_traced_memory()[0]
            objects = len(gc.get_objects()) - objects
        finally:
            tracemalloc.stop()
        clusters = [o for o in gc.get_objects() if isinstance(o, Cluster)]
        ops = max(1, result.ops)
        rows.append({
            "ops": result.ops,
            "objects_per_op": objects / ops,
            "bytes_per_op": kept_bytes / ops,
            "registry": sum(len(c.txn_registry) for c in clusters),
        })
        return result

    workload.run = counted_run
    for rep in range(reps):
        bench_run.run_rep(workload, seed * 1000 + rep)
    rss["at the end"] = peak_rss_mb()
    return rows, rss


def render(row) -> str:
    return (f"{row['ops']} ops  {row['objects_per_op']:.2f} objects/op  "
            f"{row['bytes_per_op']:.0f} B/op  "
            f"registry {row['registry']}")


def render_rss(rss) -> str:
    return "  ".join(f"{point} {mb:.2f} MB" for point, mb in rss.items())


def compared_rows(checkout: str, args) -> list:
    """The rows this script prints when run over ``checkout``'s code with
    the same workload, seed and repetitions (the peak-RSS row last)."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--reps", str(args.reps), "--root", checkout],
        capture_output=True, text=True, check=True).stdout
    return [line.split(": ", 1)[1] for line in out.splitlines()
            if line.startswith(("  rep ", "  peak RSS"))]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="kv")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--compare", metavar="PATH",
                        help="another checkout to run beside this one")
    parser.add_argument("--root", metavar="PATH",
                        default=str(Path(__file__).resolve().parent.parent),
                        help="the checkout whose code runs (default: this "
                             "script's)")
    args = parser.parse_args()
    rows, rss = census(
        Path(args.root).resolve(), args.workload, args.seed, args.reps)
    labels = [f"rep {rep}" for rep in range(len(rows))] + ["peak RSS"]
    rows = [render(row) for row in rows] + [render_rss(rss)]
    other = compared_rows(args.compare, args) if args.compare else None
    print(f"{args.workload} seed={args.seed}: kept by the timed region")
    for i, (label, row) in enumerate(zip(labels, rows)):
        if other is None:
            print(f"  {label}: {row}")
        else:
            print(f"  {label}: this  {row}\n"
                  f"  {' ' * len(label)}  other {other[i]}")


if __name__ == "__main__":
    main()
