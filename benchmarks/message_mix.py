"""Which messages a benchmark repetition's timed region sends, by kind.

``bench/run.py --trace 1`` reports messages per op as one number.  This
script splits it, from outside ``bench/``, by patching ``Network.send``
and ``Network.call``:

    python3 benchmarks/message_mix.py --workload tpcc --seed 0 --reps 1

prints, per repetition, per operation:

* the one-way messages (``Network.send``) by kind: Raft append, ack and
  commit update, the closed-timestamp side transport, and any other
  handler under its own name (liveness heartbeats, coalesced batches);
* the RPCs (``Network.call``), one per call whatever its reply, by the
  method they run;
* the kernel events dispatched (``Simulator.events_processed``), the
  figure ``bench/run.py --trace 1`` reports as ``sim.core.events_per_op``.

A send dropped by a fault still counts: it is what the sender paid for.
The counters cost a dictionary update per message, so the host-time
metrics of ``bench/run.py`` mean nothing here; the simulation itself is
unchanged.

    python3 benchmarks/message_mix.py --workload tpcc --compare ../parent

also runs this script over another checkout's code (here ``../parent``)
and prints its row under each of this checkout's.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from collections import Counter
from pathlib import Path

#: One-way handlers by the name their kind is reported under.
KINDS = {
    "_deliver_append": "append",
    "_on_ack": "ack",
    "_learn_commit": "commit update",
    "_deliver_closed_ts": "side transport",
}


def kind_of(callback) -> str:
    name = getattr(callback, "__name__", type(callback).__name__)
    qualname = getattr(callback, "__qualname__", name)
    if qualname.startswith("SideTransport."):
        return "side transport"
    return KINDS.get(name, qualname)


def census(root: Path, name: str, seed: int, reps: int):
    sys.path.insert(0, str(root))
    from bench import run as bench_run  # puts the checkout's src/ on the path
    from bench.workloads import WORKLOADS
    from repro.sim.core import Simulator
    from repro.sim.network import Network

    sends: Counter = Counter()
    calls: Counter = Counter()
    sims: list = []
    counting = [False]
    send, call, init = Network.send, Network.call, Simulator.__init__

    # Patched before any cluster exists, so no component can hold a
    # bound method of the unpatched functions.
    def counted_send(self, src, dst, callback, *args, **kwargs):
        if counting[0]:
            sends[kind_of(callback)] += 1
        return send(self, src, dst, callback, *args, **kwargs)

    def counted_call(self, src, dst, handler, *args, **kwargs):
        if counting[0]:
            # A handler written as a lambda inside a DistSender method
            # is reported under that method.
            method = getattr(handler, "__qualname__", repr(handler))
            calls[method.split(".<locals>", 1)[0]] += 1
        return call(self, src, dst, handler, *args, **kwargs)

    def registered_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sims.append(self)

    Network.send, Network.call = counted_send, counted_call
    Simulator.__init__ = registered_init

    workload = WORKLOADS[name](1.0)
    rows = []
    run = workload.run

    def counted_run(state, inputs, mark, lap):
        sends.clear()
        calls.clear()
        events = {id(sim): sim.events_processed for sim in sims}
        counting[0] = True
        try:
            result = run(state, inputs, mark, lap)
        finally:
            counting[0] = False
        ops = max(1, result.ops)
        rows.append({
            "ops": result.ops,
            "sends": {k: v / ops for k, v in sends.items()},
            "calls": {k: v / ops for k, v in calls.items()},
            "events": sum(sim.events_processed - events.get(id(sim), 0)
                          for sim in sims) / ops,
        })
        sims.clear()
        return result

    workload.run = counted_run
    for rep in range(reps):
        bench_run.run_rep(workload, seed * 1000 + rep)
    return rows


def render(row) -> list:
    """``(label, value)`` lines of one repetition: totals first, then
    every kind and method, largest first."""
    sends, calls = row["sends"], row["calls"]
    lines = [("ops", f"{row['ops']}"),
             ("events per op", f"{row['events']:.2f}"),
             ("messages per op", f"{sum(sends.values()) + sum(calls.values()):.2f}"),
             ("one-way per op", f"{sum(sends.values()):.2f}")]
    for kind in ("append", "ack", "commit update", "side transport"):
        lines.append((f"  {kind}", f"{sends.get(kind, 0.0):.2f}"))
    for kind, value in sorted(sends.items(), key=lambda kv: (-kv[1], kv[0])):
        if kind not in KINDS.values():
            lines.append((f"  {kind}", f"{value:.2f}"))
    lines.append(("RPCs per op", f"{sum(calls.values()):.2f}"))
    for method, value in sorted(calls.items(), key=lambda kv: (-kv[1], kv[0])):
        lines.append((f"  {method}", f"{value:.2f}"))
    return lines


def compared_rows(checkout: str, args) -> dict:
    """``{(rep, label): value}`` as this script prints them when run over
    ``checkout``'s code with the same workload, seed and repetitions."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--reps", str(args.reps), "--root", checkout],
        capture_output=True, text=True, check=True).stdout
    rows, rep = {}, None
    for line in out.splitlines()[1:]:
        if line.startswith("  rep "):
            rep = line.strip().rstrip(":")
            continue
        label, _sep, value = line.rpartition(" ")
        rows[(rep, label.rstrip())] = value
    return rows


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
    rows = census(Path(args.root).resolve(), args.workload, args.seed,
                  args.reps)
    other = compared_rows(args.compare, args) if args.compare else None
    print(f"{args.workload} seed={args.seed}: messages of the timed region")
    for rep, row in enumerate(rows):
        print(f"  rep {rep}:")
        for label, value in render(row):
            line = f"    {label:<44} {value:>8}"
            if other is not None:
                line += f"   other {other.get((f'rep {rep}', '    ' + label), '-'):>8}"
            print(line)


if __name__ == "__main__":
    main()
