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

and, once, the process's peak resident set (the figure ``bench/run.py``
reports as ``peak_rss_mb``) at three points: after the imports, after
the first repetition's set-up (both before ``tracemalloc`` starts) and
at the end.  The first is the fixed cost of the interpreter and the
imported modules, so ``peak_rss_mb`` reads as that plus growth; the
last includes ``tracemalloc``'s own bookkeeping.  The peak is read from
``VmHWM`` in ``/proc/self/status``, which starts afresh with each
process image; ``ru_maxrss`` is the fallback where ``/proc`` is absent,
and on Linux a child inherits it from its parent across fork and exec,
so it can report the caller's peak.  The row names its source.

    python3 benchmarks/heap_growth.py --workload verify_sweep --top 10

also prints, per repetition, what the timed region keeps: the 10
allocation sites holding the most traced bytes after the final
collection (``tracemalloc`` by line) and the 10 object types whose
tracked count grew the most, per op.

``tracemalloc`` slows the run several times over, so the host-time
metrics of ``bench/run.py`` mean nothing here; the simulation itself is
unchanged.

    python3 benchmarks/heap_growth.py --workload tpcc --compare ../parent

also runs this script over another checkout's code (here ``../parent``)
and prints its row under each of this checkout's (its ``--top``
census, if asked for, after this checkout's).
"""

from __future__ import annotations

import argparse
import gc
import resource
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path


def peak_rss():
    """(peak resident set in MB, the source it was read from)."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0, "VmHWM"
    except OSError:
        pass
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ru_maxrss")


def type_counts() -> Counter:
    return Counter(type(obj).__qualname__ for obj in gc.get_objects())


def site_name(root: Path, filename: str) -> str:
    """``filename`` relative to the checkout, so two checkouts' sites
    read alike; a file outside it keeps its last two parts."""
    path = Path(filename)
    try:
        return str(path.relative_to(root))
    except ValueError:
        return "/".join(path.parts[-2:])


def census(root: Path, name: str, seed: int, reps: int, top: int = 0):
    sys.path.insert(0, str(root))
    from bench import run as bench_run  # puts the checkout's src/ on the path
    from bench.workloads import WORKLOADS
    from repro.cluster.topology import Cluster

    rss = {"after imports": peak_rss()}
    workload = WORKLOADS[name](1.0)
    rows = []
    run = workload.run

    def counted_run(state, inputs, mark, lap):
        rss.setdefault("after set-up", peak_rss())
        gc.collect()
        types = type_counts() if top else None
        objects = len(gc.get_objects())
        tracemalloc.start()
        try:
            result = run(state, inputs, mark, lap)
            gc.collect()
            kept_bytes = tracemalloc.get_traced_memory()[0]
            snapshot = tracemalloc.take_snapshot() if top else None
            objects = len(gc.get_objects()) - objects
        finally:
            tracemalloc.stop()
        clusters = [o for o in gc.get_objects() if isinstance(o, Cluster)]
        ops = max(1, result.ops)
        row = {
            "ops": result.ops,
            "objects_per_op": objects / ops,
            "bytes_per_op": kept_bytes / ops,
            "registry": sum(len(c.txn_registry) for c in clusters),
        }
        if top:
            row["sites"] = [
                (stat.size, stat.count,
                 f"{site_name(root, stat.traceback[0].filename)}:"
                 f"{stat.traceback[0].lineno}")
                for stat in snapshot.statistics("lineno")[:top]]
            del snapshot  # its traces are objects too: not the run's
            grown = type_counts()
            grown.subtract(types)
            row["types"] = [(count / ops, kind)
                            for kind, count in grown.most_common(top)]
        rows.append(row)
        return result

    workload.run = counted_run
    for rep in range(reps):
        bench_run.run_rep(workload, seed * 1000 + rep)
    rss["at the end"] = peak_rss()
    return rows, rss


def render(row) -> str:
    return (f"{row['ops']} ops  {row['objects_per_op']:.2f} objects/op  "
            f"{row['bytes_per_op']:.0f} B/op  "
            f"registry {row['registry']}")


def render_rss(rss) -> str:
    source = next(iter(rss.values()))[1]
    return f"({source}) " + "  ".join(
        f"{point} {mb:.2f} MB" for point, (mb, _source) in rss.items())


def render_top(rows) -> list:
    lines = []
    for rep, row in enumerate(rows):
        lines.append(f"  top sites, rep {rep} (traced bytes kept):")
        lines += [f"    {size:>11,} B  {count:>7} blocks  {site}"
                  for size, count, site in row["sites"]]
        lines.append(f"  top types, rep {rep} (tracked objects kept per op):")
        lines += [f"    {per_op:>9.3f}  {kind}"
                  for per_op, kind in row["types"]]
    return lines


def compared_rows(checkout: str, args):
    """The rows this script prints when run over ``checkout``'s code with
    the same workload, seed, repetitions and ``--top`` (the peak-RSS row
    last), and its ``--top`` census lines."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--reps", str(args.reps), "--top", str(args.top),
         "--root", checkout],
        capture_output=True, text=True, check=True).stdout.splitlines()
    rows = [line.split(": ", 1)[1] for line in out
            if line.startswith(("  rep ", "  peak RSS"))]
    tops = [line for line in out if line.startswith(("  top ", "    "))]
    return rows, tops


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="kv")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--compare", metavar="PATH",
                        help="another checkout to run beside this one")
    parser.add_argument("--top", type=int, default=0, metavar="N",
                        help="also print the N allocation sites and object "
                             "types the timed region keeps most of")
    parser.add_argument("--root", metavar="PATH",
                        default=str(Path(__file__).resolve().parent.parent),
                        help="the checkout whose code runs (default: this "
                             "script's)")
    args = parser.parse_args()
    rows, rss = census(Path(args.root).resolve(), args.workload, args.seed,
                       args.reps, args.top)
    labels = [f"rep {rep}" for rep in range(len(rows))] + ["peak RSS"]
    tops = render_top(rows) if args.top else []
    rows = [render(row) for row in rows] + [render_rss(rss)]
    other, other_tops = (compared_rows(args.compare, args) if args.compare
                         else (None, []))
    print(f"{args.workload} seed={args.seed}: kept by the timed region")
    for i, (label, row) in enumerate(zip(labels, rows)):
        if other is None:
            print(f"  {label}: {row}")
        else:
            print(f"  {label}: this  {row}\n"
                  f"  {' ' * len(label)}  other {other[i]}")
    for line in tops:
        print(line)
    if other_tops:
        print(f"  other ({args.compare}):")
        for line in other_tops:
            print(f"  {line}")


if __name__ == "__main__":
    main()
