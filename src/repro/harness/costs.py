"""The cost ledger: what every pinned configuration costs in kernel
events and messages — golden-checked.

The paper measures its designs in round trips (Table 1's RTTs, §4's
local-vs-WAN consensus, Fig 6's per-transaction latency).  Here those
costs are the simulator's exact counts, so one file, ``COSTS_golden.json``
at the repo root, pins them all: ``python -m repro costs`` re-runs every
row and compares exactly, and ``python -m repro costs --update-golden``
is the only command that rewrites it.  Each row runs once under
:func:`counting`:

* ``kv`` at scale 0.25, ``movr`` at 0.2 and ``tpcc`` at 0.25 — the
  fixed client pools of :func:`~repro.harness.tracing.run_fixed_workload`;
* ``small-tpcc-crdb`` and ``small-tpcc-epoch-occ`` —
  :func:`~repro.harness.tracing.run_small_tpcc` under each backend;
* ``overload`` at seeds 0-2 — the open-loop harness at 4x offered load
  (:data:`OVERLOAD_CONFIG`), with its result's fingerprint and
  observability off, as that harness runs by default;
* ``trace-movr`` — the ``repro trace`` workload, with the sha256 of its
  trace and metrics exports.

Per row: the kernel events and the final clock (exact, not rounded);
ops and latency p50/p99 where a recorder counts them; the messages the
network carried (one-way messages by handler kind, RPCs by method, the
side transport's range entries); Raft proposals; counter events and
histogram observations; the kernel events by the callback each one ran;
where observability is on, RPC attempts and the spans recorded (in
all and by name); and, where SQL ran, parse calls, full parses and
the DML shapes and DDL texts cached (from an empty cache).  A change
that moves one message shows in the mismatch report under the kind
that moved, and the per-callback rows say which code paid for it.

:func:`counting` is also what ``benchmarks/message_mix.py`` counts
with, over a benchmark repetition instead of a whole run.
"""

from __future__ import annotations

import functools
import hashlib
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Sequence, Tuple

from ..kv.sidetransport import SideTransport
from ..sim.core import Simulator
from ..sim.network import Network
from ..sql import parser, session
from .golden import repo_path
from .openloop import OpenLoopConfig, OpenLoopHarness
from .tracing import run_fixed_workload, run_small_tpcc, run_traced_workload

__all__ = ["counting", "Tally", "Counted", "kind_of", "callback_name",
           "range_entries", "KINDS", "OVERLOAD_CONFIG", "ROWS", "run_row",
           "run_costs_suite", "golden_entries", "render_costs",
           "GOLDEN_PATH", "GOLDEN_SEEDS"]

GOLDEN_PATH = repo_path("COSTS_golden.json")
GOLDEN_SEEDS = (0, 1, 2)

#: The overload rows' open-loop run: 4x offered load, admission on,
#: a short window.
OVERLOAD_CONFIG = dict(load_multiplier=4.0, duration_ms=600.0)


# -- counting ----------------------------------------------------------------

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
    """The kind a one-way message is counted under: its handler's entry
    in :data:`KINDS`, else the handler's qualified name."""
    name = getattr(callback, "__name__", type(callback).__name__)
    qualname = getattr(callback, "__qualname__", name)
    if qualname.startswith(SIDE_TRANSPORT):
        return "side transport"
    return KINDS.get(name, qualname)


def range_entries(callback, args, last_tables: dict) -> int:
    """How many ranges one side-transport message names.  A per-range
    update (``_deliver_closed_ts``) names one; a per-policy stream
    message ``(frame, table)`` names the table entries that changed
    since the stream's previous message (``last_tables`` is keyed by the
    stream's receiver)."""
    if getattr(callback, "__name__", "") == "_deliver_closed_ts":
        return 1
    _frame, table = args
    receiver = callback.__self__
    last = last_tables.get(receiver, {})
    last_tables[receiver] = table
    return sum(1 for range_id, entry in table.items()
               if last.get(range_id) is not entry)


def callback_name(fn) -> str:
    """What a kernel event is counted under: its callback's qualified
    name (``RaftGroup._deliver_append``), a process resume under its
    generator's (``Range.serve_write``), a future fired by a timer under
    its class (``Future``, ``RpcFuture``)."""
    owner = getattr(fn, "__self__", None)
    generator = getattr(owner, "_generator", None)
    if generator is not None and getattr(fn, "__name__", "") == "_step":
        return generator.__qualname__
    fn = getattr(fn, "func", fn)  # a functools.partial: what it calls
    return getattr(fn, "__qualname__", type(fn).__name__)


class Tally:
    """What :func:`counting` saw while ``on``."""

    def __init__(self, on: bool = True):
        self.on = on
        #: One-way messages (``Network.send``) by :func:`kind_of`.
        self.sends: Counter = Counter()
        #: RPCs (``Network.call``), one per call, by the method they run.
        self.calls: Counter = Counter()
        #: Kernel events by :func:`callback_name`.
        self.by_callback: Counter = Counter()
        #: Ranges the side transport's messages name, the entries they
        #: carry (a per-range update carries one), and its ticks.
        self.range_entries = self.table_entries = 0
        self.ticks = 0
        #: SQL front-end calls: ``parse``, and ``tokenize`` (a full parse).
        self.parser: Counter = Counter()

    def clear(self) -> None:
        self.sends.clear()
        self.calls.clear()
        self.by_callback.clear()
        self.parser.clear()
        self.range_entries = self.table_entries = self.ticks = 0


class Counted:
    """An event's callback, counted under its name when it fires."""

    __slots__ = ("fn", "name", "tally")

    def __init__(self, fn, tally: Tally):
        self.fn = fn
        self.name = callback_name(fn)
        self.tally = tally

    def __call__(self, *args):
        tally = self.tally
        if tally.on:
            tally.by_callback[self.name] += 1
        return self.fn(*args)


@contextmanager
def counting(on: bool = True) -> Iterator[Tally]:
    """Count every message and kernel event into the yielded
    :class:`Tally` while its ``on`` is true.

    Patches ``Network.send`` / ``Network.call``, the kernel's three
    scheduling entry points and ``SideTransport._tick`` at class level,
    and the SQL parser's ``parse`` (the parser's and the session's) and
    ``tokenize``, and restores them on exit whatever happens.  Enter it
    before any cluster is built: a component that bound one of them
    earlier is not seen.  A send dropped by a fault still counts (it is
    what the sender paid for), and a cancelled event, never dispatched,
    never does.  The simulation itself is unchanged."""
    tally = Tally(on)
    last_tables: dict = {}
    send, call = Network.send, Network.call
    call_at, call_after = Simulator.call_at, Simulator.call_after
    call_soon = Simulator._call_soon
    tick = SideTransport._tick
    sql_front_end = parser.parse, session.parse, parser.tokenize

    def counted_send(self, src, dst, callback, *args, **kwargs):
        kind = kind_of(callback)
        if kind == "side transport":
            # Tracked from the first message on, so the first one
            # counted is judged against the one before it.
            entries = range_entries(callback, args, last_tables)
            if tally.on:
                tally.range_entries += entries
                tally.table_entries += len(args[1]) if len(args) == 2 else 1
        if tally.on:
            tally.sends[kind] += 1
        return send(self, src, dst, callback, *args, **kwargs)

    @functools.wraps(tick)  # its events count as SideTransport._tick
    def counted_tick(self):
        if tally.on:
            tally.ticks += 1
        return tick(self)

    def counted_call(self, src, dst, handler, *args, **kwargs):
        if tally.on:
            # A handler written as a lambda inside a DistSender method
            # is reported under that method.
            method = getattr(handler, "__qualname__", repr(handler))
            tally.calls[method.split(".<locals>", 1)[0]] += 1
        return call(self, src, dst, handler, *args, **kwargs)

    def counted_sql(fn):
        def counted(sql):
            if tally.on:
                tally.parser[fn.__name__] += 1
            return fn(sql)
        return counted

    def counted_call_at(self, when, fn, *args):
        return call_at(self, when, Counted(fn, tally), *args)

    def counted_call_after(self, delay, fn, *args):
        return call_after(self, delay, Counted(fn, tally), *args)

    def counted_call_soon(self, fn, *args):
        return call_soon(self, Counted(fn, tally), *args)

    Network.send, Network.call = counted_send, counted_call
    Simulator.call_at, Simulator.call_after = (counted_call_at,
                                               counted_call_after)
    Simulator._call_soon = counted_call_soon
    SideTransport._tick = counted_tick
    parser.parse = session.parse = counted_sql(parser.parse)
    parser.tokenize = counted_sql(parser.tokenize)
    try:
        yield tally
    finally:
        Network.send, Network.call = send, call
        Simulator.call_at, Simulator.call_after = call_at, call_after
        Simulator._call_soon = call_soon
        SideTransport._tick = tick
        parser.parse, session.parse, parser.tokenize = sql_front_end


# -- the rows ----------------------------------------------------------------


def _client_pool(run: Callable, *args: Any, **kwargs: Any) -> Callable:
    def row(seed: int) -> Tuple:
        engine, recorder = run(*args, seed=seed, obs_enabled=True, **kwargs)
        summary = recorder.summary()
        return engine.cluster, {"ops": recorder.total_ops(),
                                "latency_p50_ms": summary.p50,
                                "latency_p99_ms": summary.p99}
    return row


def _overload(seed: int) -> Tuple:
    # Observability off, as the open-loop harness runs by default: no
    # span fields in these rows.
    harness = OpenLoopHarness(OpenLoopConfig(seed=seed, **OVERLOAD_CONFIG))
    return harness.cluster, {"fingerprint": harness.run().fingerprint()}


def _trace_movr(seed: int) -> Tuple:
    cluster = run_traced_workload("movr", seed=seed).cluster
    obs = cluster.sim.obs
    exports = {"trace_sha256": obs.tracer.to_json(),
               "metrics_sha256": obs.registry.to_json()}
    return cluster, {
        key: hashlib.sha256((text + "\n").encode()).hexdigest()
        for key, text in exports.items()}


#: configuration -> (the seeds it is pinned at, seed -> (cluster, the
#: row's own fields)), in ledger order.
ROWS: Dict[str, Tuple[Tuple[int, ...], Callable[[int], Tuple]]] = {
    "kv": ((0,), _client_pool(run_fixed_workload, "kv", scale=0.25)),
    "movr": ((0,), _client_pool(run_fixed_workload, "movr", scale=0.2)),
    "tpcc": ((0,), _client_pool(run_fixed_workload, "tpcc", scale=0.25)),
    "small-tpcc-crdb": ((0,), _client_pool(run_small_tpcc, "crdb")),
    "small-tpcc-epoch-occ": ((0,), _client_pool(run_small_tpcc,
                                                "epoch-occ")),
    "overload": ((0, 1, 2), _overload),
    "trace-movr": ((0,), _trace_movr),
}


def run_row(config: str, seed: int) -> Dict[str, Any]:
    """One ledger row: run ``config`` at ``seed`` under :func:`counting`."""
    parser._PARSE_CACHE.clear()
    with counting() as tally:
        cluster, own = ROWS[config][1](seed)
    sim = cluster.sim
    obs, registry = sim.obs, sim.obs.registry
    row = {
        "events": sim.events_processed,
        "clock": sim.now,
        **own,
        "messages_sent": cluster.network.messages_sent,
        "messages": dict(tally.sends),
        "rpcs": dict(tally.calls),
        "side_transport_range_entries": tally.range_entries,
        "raft_proposals": int(sum(
            c.value for c in registry.instruments("raft.proposals"))),
        # Event counters only: *_ms_total accumulate durations.
        "counter_events": int(sum(
            c.value for c in registry.instruments(kind="counter")
            if not c.name.endswith("_ms_total"))),
        "observations": sum(
            h.count for h in registry.instruments(kind="histogram")),
        "events_by_callback": dict(tally.by_callback),
    }
    if obs.enabled:
        spans = Counter(span.name for span in obs.tracer.spans())
        row.update({
            "rpc_attempts": spans["rpc.attempt"],
            "spans": sum(spans.values()),
            "spans_by_name": dict(spans),
            # Nonzero: the ring dropped whole trees, so the span counts
            # above undercount.
            "dropped_roots": obs.tracer.dropped_roots,
        })
    if tally.parser:
        # The cache keys DML by shape (a tuple), DDL by text.
        shapes = sum(isinstance(key, tuple) for key in parser._PARSE_CACHE)
        row.update(parse_calls=tally.parser["parse"],
                   full_parses=tally.parser["tokenize"], dml_shapes=shapes,
                   ddl_texts=len(parser._PARSE_CACHE) - shapes)
    return row


def run_costs_suite(seeds: Sequence[int]) -> Dict[str, Any]:
    """Every row pinned at one of ``seeds``; ``ok`` when any ran."""
    rows = {f"{config}/{seed}": run_row(config, seed)
            for config, (pinned, _run) in ROWS.items()
            for seed in pinned if seed in seeds}
    return {"ok": bool(rows), "seeds": list(seeds), "rows": rows}


def golden_entries(suite: Dict[str, Any]) -> Dict[Tuple[str, ...], Any]:
    """The suite's rows, addressed as in COSTS_golden.json."""
    return {(name,): row for name, row in suite["rows"].items()}


def render_costs(suite: Dict[str, Any]) -> str:
    """One line per row: the totals the mismatch report breaks down."""
    lines = ["cost ledger (exact; every field of a row is compared)",
             f"  {'row':<24} {'events':>7} {'clock ms':>12} "
             f"{'one-way':>7} {'rpcs':>6} {'props':>5} {'spans':>6}"]
    for name, row in suite["rows"].items():
        lines.append(
            f"  {name:<24} {row['events']:>7} {row['clock']:>12.3f} "
            f"{sum(row['messages'].values()):>7} "
            f"{sum(row['rpcs'].values()):>6} {row['raft_proposals']:>5} "
            f"{row.get('spans', '-'):>6}")
    if not suite["rows"]:
        lines.append(f"  no row is pinned at seeds {suite['seeds']}")
    return "\n".join(lines)
