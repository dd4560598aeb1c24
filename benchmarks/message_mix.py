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
* the side transport's *table entries* per message: the ranges each
  message carries, changed or not (a per-range message carries one),
  which is what its receiver delivers;
* the RPCs (``Network.call``), one per call whatever its reply, by the
  method they run;
* the Raft retransmission ticker's ticks per op and the groups each
  tick visits (only those not quiesced), for runs provisioned with
  retransmission;
* the kernel events dispatched, by the callback each one ran: its
  qualified name (``RaftGroup._deliver_append``), a process resume
  under its generator's (``Range.serve_write``), a future fired by a
  timer under its class (``Future``, ``RpcFuture``).  The census wraps
  every scheduled callback in a counter, so a cancelled event, which is
  never dispatched, is never counted, and the rows sum to
  ``Simulator.events_processed``, the figure ``bench/run.py --trace 1``
  reports as ``sim.core.events_per_op`` (the cost ledger, ``python -m
  repro costs``, holds both for each of its runs).

A send dropped by a fault still counts: it is what the sender paid for.
The counters cost a dictionary update per message, so the host-time
metrics of ``bench/run.py`` mean nothing here; the simulation itself is
unchanged.

    python3 benchmarks/message_mix.py --workload tpcc --compare ../parent

also runs another checkout's own copy of this script (here
``../parent/benchmarks/message_mix.py``) and prints its value beside
each of this checkout's; a row only the other checkout has follows
under ``only in other``.  The counting itself is
:func:`repro.harness.costs.counting`, the cost ledger's.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench import run as bench_run  # noqa: E402  (puts src/ on the path)
from bench.workloads import WORKLOADS  # noqa: E402
from repro.harness.costs import KINDS, counting  # noqa: E402
from repro.raft.group import RaftGroup  # noqa: E402

#: The retransmission ticker's events, as the kernel census names them.
TICK = "RetransmitTicker._tick"


def count_visits(tally):
    """Patch ``RaftGroup._retransmit``, the retransmission ticker's visit
    to one group, to count into ``visits[0]`` while ``tally.on``;
    returns ``(visits, restore)``."""
    visits = [0]
    visit = RaftGroup._retransmit

    def counted(self):
        if tally.on:
            visits[0] += 1
        return visit(self)

    RaftGroup._retransmit = counted

    def restore():
        RaftGroup._retransmit = visit

    return visits, restore


def census(name: str, seed: int, reps: int):
    rows = []
    # Installed before any cluster exists, so no component can hold a
    # bound method of the unpatched functions.
    with counting(on=False) as tally:
        visits, restore = count_visits(tally)
        workload = WORKLOADS[name](1.0)
        run = workload.run

        def counted_run(state, inputs, mark, lap):
            tally.clear()
            visits[0] = 0
            tally.on = True
            try:
                result = run(state, inputs, mark, lap)
            finally:
                tally.on = False
            ops = max(1, result.ops)
            rows.append({
                "ops": result.ops,
                "sends": {k: v / ops for k, v in tally.sends.items()},
                "calls": {k: v / ops for k, v in tally.calls.items()},
                "entries": tally.range_entries / ops,
                "entries_per_tick": tally.range_entries / max(1, tally.ticks),
                "table_per_message": tally.table_entries / max(
                    1, tally.sends["side transport"]),
                "by_callback": {k: v / ops
                                for k, v in tally.by_callback.items()},
                "retransmit_ticks": tally.by_callback[TICK] / ops,
                "visits_per_tick": visits[0] / max(
                    1, tally.by_callback[TICK]),
            })
            return result

        workload.run = counted_run
        try:
            for rep in range(reps):
                bench_run.run_rep(workload, seed * 1000 + rep)
        finally:
            restore()
    return rows


def render(row) -> list:
    """``(label, value)`` lines of one repetition: totals first, then
    every kind and method, largest first."""
    sends, calls = row["sends"], row["calls"]
    lines = [("ops", f"{row['ops']}"),
             ("events per op", f"{sum(row['by_callback'].values()):.2f}"),
             ("messages per op", f"{sum(sends.values()) + sum(calls.values()):.2f}"),
             ("one-way per op", f"{sum(sends.values()):.2f}")]
    for kind in ("append", "ack", "commit update", "side transport"):
        lines.append((f"  {kind}", f"{sends.get(kind, 0.0):.2f}"))
    lines.append(("    range entries per op", f"{row['entries']:.2f}"))
    lines.append(("    range entries per tick",
                  f"{row['entries_per_tick']:.2f}"))
    lines.append(("    table entries per message",
                  f"{row['table_per_message']:.2f}"))
    for kind, value in sorted(sends.items(), key=lambda kv: (-kv[1], kv[0])):
        if kind not in KINDS.values():
            lines.append((f"  {kind}", f"{value:.2f}"))
    lines.append(("retransmission ticks per op",
                  f"{row['retransmit_ticks']:.2f}"))
    lines.append(("  groups visited per tick",
                  f"{row['visits_per_tick']:.2f}"))
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
    """``{(rep, label): value}`` as ``checkout``'s own copy of this
    script prints them for the same workload, seed and repetitions."""
    out = subprocess.run(
        [sys.executable,
         str(Path(checkout).resolve() / "benchmarks" / "message_mix.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--reps", str(args.reps)],
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
    args = parser.parse_args()
    rows = census(args.workload, args.seed, args.reps)
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
