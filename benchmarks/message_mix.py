"""Which messages a benchmark repetition's timed region sends, by kind.

``bench/run.py --trace 1`` reports messages per op as one number.  This
script splits it, from outside ``bench/``, by patching ``Network.send``
and ``Network.call``:

    python3 benchmarks/message_mix.py --workload tpcc --seed 0 --reps 1

prints, per repetition, per operation:

* the one-way messages (``Network.send``) by kind: Raft append, ack and
  commit update, the closed-timestamp side transport, and any other
  handler under its own name (liveness heartbeats, coalesced batches);
* the side transport's *range entries* per op and per tick: the ranges
  its messages name.  A per-range message (one update per range, as
  before the per-policy streams) names every range it carries; a
  per-policy stream names only the ranges whose table entry changed
  since the stream's previous message — the rest ride their policy's
  one closed timestamp;
* the RPCs (``Network.call``), one per call whatever its reply, by the
  method they run;
* the kernel events dispatched (``Simulator.events_processed``), the
  figure ``bench/run.py --trace 1`` reports as ``sim.core.events_per_op``,
  and the same events by the callback each one ran: its qualified name
  (``RaftGroup._deliver_append``), a process resume under its
  generator's (``Range.serve_write``), a future fired by a timer under
  its class (``Future``, ``RpcFuture``).  The census wraps every
  scheduled callback in a counter, so a cancelled event, which is never
  dispatched, is never counted, and the rows sum to the events per op.

A send dropped by a fault still counts: it is what the sender paid for.
The counters cost a dictionary update per message, so the host-time
metrics of ``bench/run.py`` mean nothing here; the simulation itself is
unchanged.

    python3 benchmarks/message_mix.py --workload tpcc --compare ../parent

also runs this script over another checkout's code (here ``../parent``)
and prints its value beside each of this checkout's; a row only the
other checkout has follows under ``only in other``.
"""

from __future__ import annotations

import argparse
import functools
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


#: Handlers of the per-node-pair side transport, by qualified name prefix.
SIDE_TRANSPORT = ("SideTransport.", "ClosedTsReceiver.")


def kind_of(callback) -> str:
    name = getattr(callback, "__name__", type(callback).__name__)
    qualname = getattr(callback, "__qualname__", name)
    if qualname.startswith(SIDE_TRANSPORT):
        return "side transport"
    return KINDS.get(name, qualname)


def range_entries(callback, args, last_tables: dict) -> int:
    """How many ranges one side-transport message names.  A per-range
    update (``_deliver_closed_ts``) names one; a per-node-pair message
    whose payload is a list of updates names each; a per-policy stream
    message ``(frame, table)`` names the table entries that changed
    since the stream's previous message (``last_tables`` is keyed by the
    stream's receiver)."""
    if getattr(callback, "__name__", "") == "_deliver_closed_ts":
        return 1
    if len(args) == 1:
        return len(args[0])
    _frame, table = args
    receiver = callback.__self__
    last = last_tables.get(receiver, {})
    last_tables[receiver] = table
    return sum(1 for range_id, entry in table.items()
               if last.get(range_id) is not entry)


def callback_name(fn) -> str:
    """What an event's callback is counted under (see the docstring)."""
    owner = getattr(fn, "__self__", None)
    generator = getattr(owner, "_generator", None)
    if generator is not None and getattr(fn, "__name__", "") == "_step":
        return generator.__qualname__
    fn = getattr(fn, "func", fn)  # a functools.partial: what it calls
    return getattr(fn, "__qualname__", type(fn).__name__)


class Counted:
    """An event's callback, counted under its name when it fires."""

    __slots__ = ("fn", "name", "tally")

    def __init__(self, fn, tally):
        self.fn = fn
        self.name = callback_name(fn)
        self.tally = tally

    def __call__(self, *args):
        tally = self.tally
        if tally[0]:
            tally[1][self.name] += 1
        return self.fn(*args)


def census(root: Path, name: str, seed: int, reps: int):
    sys.path.insert(0, str(root))
    from bench import run as bench_run  # puts the checkout's src/ on the path
    from bench.workloads import WORKLOADS
    from repro.kv.sidetransport import SideTransport
    from repro.sim.core import Simulator
    from repro.sim.network import Network

    sends: Counter = Counter()
    calls: Counter = Counter()
    #: side-transport range entries and ticks
    side: Counter = Counter()
    last_tables: dict = {}
    sims: list = []
    counting = [False]
    #: [counting, events by callback]: read by every Counted.
    tally = [False, Counter()]
    send, call, init = Network.send, Network.call, Simulator.__init__
    call_at, call_after = Simulator.call_at, Simulator.call_after
    call_soon = Simulator._call_soon
    tick = SideTransport._tick

    # Patched before any cluster exists, so no component can hold a
    # bound method of the unpatched functions.
    def counted_send(self, src, dst, callback, *args, **kwargs):
        kind = kind_of(callback)
        if kind == "side transport":
            # Tracked from the first message on, so the first one of the
            # timed region is judged against the one before it.
            entries = range_entries(callback, args, last_tables)
            if counting[0]:
                side["entries"] += entries
        if counting[0]:
            sends[kind] += 1
        return send(self, src, dst, callback, *args, **kwargs)

    @functools.wraps(tick)
    def counted_tick(self):
        if counting[0]:
            side["ticks"] += 1
        return tick(self)

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

    def counted_call_at(self, when, fn, *args):
        return call_at(self, when, Counted(fn, tally), *args)

    def counted_call_after(self, delay, fn, *args):
        return call_after(self, delay, Counted(fn, tally), *args)

    def counted_call_soon(self, fn, *args):
        return call_soon(self, Counted(fn, tally), *args)

    Network.send, Network.call = counted_send, counted_call
    Simulator.__init__ = registered_init
    Simulator.call_at, Simulator.call_after = (counted_call_at,
                                               counted_call_after)
    Simulator._call_soon = counted_call_soon
    SideTransport._tick = counted_tick

    workload = WORKLOADS[name](1.0)
    rows = []
    run = workload.run

    def counted_run(state, inputs, mark, lap):
        sends.clear()
        calls.clear()
        side.clear()
        tally[1].clear()
        events = {id(sim): sim.events_processed for sim in sims}
        counting[0] = tally[0] = True
        try:
            result = run(state, inputs, mark, lap)
        finally:
            counting[0] = tally[0] = False
        ops = max(1, result.ops)
        rows.append({
            "ops": result.ops,
            "sends": {k: v / ops for k, v in sends.items()},
            "calls": {k: v / ops for k, v in calls.items()},
            "entries": side["entries"] / ops,
            "entries_per_tick": side["entries"] / max(1, side["ticks"]),
            "events": sum(sim.events_processed - events.get(id(sim), 0)
                          for sim in sims) / ops,
            "by_callback": {k: v / ops for k, v in tally[1].items()},
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
    lines.append(("    range entries per op", f"{row['entries']:.2f}"))
    lines.append(("    range entries per tick",
                  f"{row['entries_per_tick']:.2f}"))
    for kind, value in sorted(sends.items(), key=lambda kv: (-kv[1], kv[0])):
        if kind not in KINDS.values():
            lines.append((f"  {kind}", f"{value:.2f}"))
    lines.append(("RPCs per op", f"{sum(calls.values()):.2f}"))
    for method, value in sorted(calls.items(), key=lambda kv: (-kv[1], kv[0])):
        lines.append((f"  {method}", f"{value:.2f}"))
    by_callback = row["by_callback"]
    lines.append(("events per op by callback",
                  f"{sum(by_callback.values()):.2f}"))
    for callback, value in sorted(by_callback.items(),
                                  key=lambda kv: (-kv[1], kv[0])):
        lines.append((f"  {callback}", f"{value:.2f}"))
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
        shown = set()
        for label, value in render(row):
            line = f"    {label:<44} {value:>8}"
            if other is not None:
                key = (f"rep {rep}", "    " + label)
                shown.add(key)
                line += f"   other {other.get(key, '-'):>8}"
            print(line)
        only = [(key[1], value) for key, value in (other or {}).items()
                if key[0] == f"rep {rep}" and key not in shown]
        if only:
            print("    only in other:")
            for label, value in only:
                print(f"    {label[4:]:<44} {'-':>8}   other {value:>8}")


if __name__ == "__main__":
    main()
