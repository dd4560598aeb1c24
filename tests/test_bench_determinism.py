"""Determinism guarantees behind every measured run.

Two properties make numbers comparable across PRs (``bench/`` asserts
the same per repetition), and both are pinned here:

* **Observability equivalence** — running with observability off is a
  pure fast path: for a fixed seed it must produce byte-identical
  latency samples and final replica state to a fully-instrumented run,
  and the same counters, gauges and per-operation histograms — the mode
  drops the span ring and two per-event distributions, nothing else.
* **Golden snapshots** — a fixed seed and scale always simulates the
  same events.  The goldens in ``tests/goldens/`` freeze event counts,
  simulated time, op counts, latency percentiles and the exact cost
  counts (network messages, Raft proposals, RPC attempts — so events
  per op and messages per proposal are gated per seed); any engine
  change that shifts them is changing *behaviour*, not just speed, and
  must regenerate the goldens deliberately (see :func:`regen_goldens`).
"""

import json
import pathlib

import pytest

from repro.cluster import standard_cluster
from repro.harness.openloop import OpenLoopConfig, OpenLoopHarness
from repro.harness.tracing import (DEFAULT_REGIONS, run_fixed_workload,
                                   run_tpcc_clients)
from repro.obs.report import LatencyRecorder
from repro.sql.session import Engine

from .test_admission import GOLDEN_CONFIG as OPENLOOP_GOLDEN_CONFIG

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"

#: (workload, seed, scale) — small enough to run in a few seconds,
#: large enough to traverse every hot path the benchmarks exercise.
#: ``tpcc_epoch`` is :func:`run_small_tpcc` under epoch-OCC (6 of the 40
#: transactions per client, hence 0.15).
GOLDEN_CONFIGS = [("kv", 0, 0.25), ("movr", 0, 0.2), ("tpcc", 0, 0.25),
                  ("tpcc_epoch", 0, 0.15)]


def state_digest(engine):
    """Canonical snapshot of every replica: Raft progress plus the full
    committed MVCC contents, ordered deterministically."""
    rows = []
    for node in engine.cluster.nodes:
        for range_id in sorted(node.replicas):
            replica = node.replicas[range_id]
            peer = replica.range.group.peers[node.node_id]
            store = replica.store
            keys = []
            for key in sorted(store._data, key=repr):
                history = store._data[key]
                keys.append((repr(key),
                             [(v.ts.physical, v.ts.logical, repr(v.value))
                              for v in history.versions],
                             history.intent is not None))
            rows.append((node.node_id, range_id, peer.applied_index,
                         peer.last_index, peer.known_commit_index, keys))
    return rows


def run_small_tpcc(protocol, obs_enabled):
    """Six TPC-C transactions per client under ``protocol``, seed 0."""
    cluster = standard_cluster(
        DEFAULT_REGIONS, max_clock_offset=250.0, skew_fraction=0.05,
        jitter_fraction=0.02, seed=0, obs_enabled=obs_enabled,
        txn_protocol=protocol)
    engine = Engine(cluster, seed=0)
    recorder = LatencyRecorder(cluster.sim.obs.registry)
    run_tpcc_clients(engine, DEFAULT_REGIONS, 6, recorder, 0)
    return engine, recorder


#: The whole of what ``obs_enabled=False`` leaves out of the registry
#: (``repro.obs`` has the definition; the span ring is the other half).
GATED_DISTRIBUTIONS = {"net.hop_ms", "raft.commit_ms"}


def assert_registry_parity(on_sim, off_sim):
    """The obs mode's definition, pinned: an obs-off run counts every
    counter, gauge and per-operation histogram exactly as the obs-on run
    of the same seed does, and lacks only the two gated distributions.
    A new guard that hides a counter with obs off fails here."""
    on_registry, off_registry = on_sim.obs.registry, off_sim.obs.registry
    on, off = on_registry.snapshot(), off_registry.snapshot()
    assert on["counters"] and off["counters"] == on["counters"]
    assert off["gauges"] == on["gauges"]
    on_names = {inst.name for inst in on_registry.instruments()}
    off_names = {inst.name for inst in off_registry.instruments()}
    assert off_names <= on_names
    assert on_names - off_names == GATED_DISTRIBUTIONS
    assert off["histograms"], "per-operation histograms must survive"
    for key, summary in off["histograms"].items():
        assert on["histograms"][key] == summary, key


def run_fingerprint(workload, seed, scale):
    """One obs-on run (``rpc_attempts`` counts spans; the registry
    counts read the same with obs off) boiled down to what must repeat
    exactly, cost counts included: ``events / ops`` and
    ``messages_sent / raft_proposals`` are the whole-run (set-up and
    load too) forms of the ledger's events/op and msgs/proposal."""
    if workload == "tpcc_epoch":
        assert (seed, scale) == (0, 0.15)
        engine, recorder = run_small_tpcc("epoch-occ", True)
    else:
        engine, recorder = run_fixed_workload(workload, seed, scale=scale)
    sim = engine.cluster.sim
    summary = recorder.summary()
    tracer = sim.obs.tracer
    assert tracer.dropped_roots == 0  # or rpc_attempts undercounts
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "events": sim.events_processed,
        "sim_ms": round(sim.now, 3),
        "ops": recorder.total_ops(),
        "latency_p50_ms": round(summary.p50, 3),
        "latency_p99_ms": round(summary.p99, 3),
        "messages_sent": engine.cluster.network.messages_sent,
        "raft_proposals": int(sum(
            c.value for c in sim.obs.registry.instruments("raft.proposals"))),
        "rpc_attempts": sum(1 for span in tracer.spans()
                            if span.name == "rpc.attempt"),
    }


def regen_goldens():
    """Rewrite every golden snapshot from the current engine.  Run as
    ``PYTHONPATH=src python -c "from tests.test_bench_determinism import
    regen_goldens; regen_goldens()"`` from the repo root after an
    *intentional* behaviour change, and commit the diff with it."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    for workload, seed, scale in GOLDEN_CONFIGS:
        path = GOLDEN_DIR / f"{workload}_seed{seed}.json"
        path.write_text(
            json.dumps(run_fingerprint(workload, seed, scale), indent=2)
            + "\n")


class TestObsEquivalence:
    """Observability off must change nothing but wall-clock."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kv_identical_across_obs_modes(self, seed):
        full_engine, full_rec = run_fixed_workload("kv", seed, True, 0.25)
        off_engine, off_rec = run_fixed_workload("kv", seed, False, 0.25)
        assert (full_engine.cluster.sim.events_processed
                == off_engine.cluster.sim.events_processed)
        assert full_engine.cluster.sim.now == off_engine.cluster.sim.now
        assert full_rec.total_ops() == off_rec.total_ops()
        # Byte-identical latency samples, not just matching percentiles.
        assert full_rec.samples() == off_rec.samples()
        assert state_digest(full_engine) == state_digest(off_engine)
        assert_registry_parity(full_engine.cluster.sim,
                               off_engine.cluster.sim)

    def test_movr_identical_across_obs_modes(self):
        full_engine, full_rec = run_fixed_workload("movr", 0, True, 0.2)
        off_engine, off_rec = run_fixed_workload("movr", 0, False, 0.2)
        assert (full_engine.cluster.sim.events_processed
                == off_engine.cluster.sim.events_processed)
        assert full_rec.samples() == off_rec.samples()
        assert state_digest(full_engine) == state_digest(off_engine)
        assert_registry_parity(full_engine.cluster.sim,
                               off_engine.cluster.sim)


    @pytest.mark.parametrize("protocol", ["crdb", "epoch-occ"])
    def test_tpcc_identical_across_obs_modes(self, protocol):
        """Multi-statement transactions through both backends' span
        sites (``txn/crdb.py``, ``txn/epoch.py``): tracing them must not
        move one event."""
        full_engine, full_rec = run_small_tpcc(protocol, True)
        off_engine, off_rec = run_small_tpcc(protocol, False)
        tracer = full_engine.cluster.sim.obs.tracer
        commit = ("txn.epoch_commit" if protocol == "epoch-occ"
                  else "txn.commit")
        assert any(s.name == commit for s in tracer.spans())
        assert (full_engine.cluster.sim.events_processed
                == off_engine.cluster.sim.events_processed)
        assert full_engine.cluster.sim.now == off_engine.cluster.sim.now
        assert full_rec.total_ops() == off_rec.total_ops()
        assert full_rec.samples() == off_rec.samples()
        assert state_digest(full_engine) == state_digest(off_engine)
        assert_registry_parity(full_engine.cluster.sim,
                               off_engine.cluster.sim)

    def test_openloop_registry_identical_across_obs_modes(self):
        """Admission queues, store work queues and retry budgets count
        the same in both modes (their fingerprints are compared in
        ``test_admission.py``)."""
        sims = []
        for obs_enabled in (True, False):
            harness = OpenLoopHarness(OpenLoopConfig(
                seed=0, obs_enabled=obs_enabled, **OPENLOOP_GOLDEN_CONFIG))
            harness.run()
            sims.append(harness.sim)
        assert_registry_parity(*sims)


class TestGoldenSnapshots:
    @pytest.mark.parametrize("workload,seed,scale", GOLDEN_CONFIGS)
    def test_matches_golden(self, workload, seed, scale):
        path = GOLDEN_DIR / f"{workload}_seed{seed}.json"
        expected = json.loads(path.read_text())
        got = run_fingerprint(workload, seed, scale)
        assert got == expected, (
            f"fixed-seed {workload} run diverged from {path.name}; if the "
            f"behaviour change is intentional, regenerate the goldens "
            f"(see regen_goldens) and commit them")

    def test_repeat_runs_are_identical(self):
        """Two runs in one process agree exactly — no hidden global
        state (module-level RNG, caches keyed on id()) leaks between
        engine instances."""
        assert (run_fingerprint("kv", 0, 0.25)
                == run_fingerprint("kv", 0, 0.25))


class TestKernelPins:
    """Event count and final clock, exact, for one obs-off run per
    protocol: a kernel change that adds, drops or reorders a single
    event moves these.  Re-pin only with the reason the *simulation*
    changed written down.

    ISSUE 17 re-pinned all three (18659 / 22217 / 27896 events at every
    commit from 49df7f1, the last with the timer wheel, to PR 16): RPC
    deadlines and proposal timeouts are cancelled instead of firing, a
    follower's ack is one event instead of timer + message and is not
    sent for a committed index, and the side transport ships per node
    pair — fewer events and fewer jitter draws, so every later message
    draws a different jitter (the clocks move by under 0.03%).

    ISSUE 18 re-pinned epoch-occ only (18308 events, clock
    9570.279946425457 at PR 17): the epoch pipeline sends one RPC / one
    Raft entry per range — validation re-reads each distinct key once
    and apply lays one batch per range, so fewer events and fewer jitter
    draws (the clock moves by 0.26%).  kv and crdb execute exactly the
    events they did.

    ISSUE 22 re-pinned all three (15042 / 14986 / 14429 events at PR 21):
    kv's 327 auto-commit UPDATEs commit one-phase — one RPC and one Raft
    entry each where there were two, 5459 events fewer — and every
    multi-key transaction of both TPC-C runs resolves its intents with
    one RPC and one entry per range instead of one per key (crdb -2089
    events, epoch-occ -2213).  Fewer messages draw fewer jitters, so the
    clocks move by under 0.3%.

    Write pipelining re-pinned crdb only (11551 events, clock
    7450.612061859593 before): a home-region intent is answered at its
    proposal and proven at commit, one proof RPC per range not holding
    the record — more events and messages (+268), a shorter run (the
    clock moves by -0.8%).  kv (one-phase) and epoch-occ (its apply is
    never pipelined) execute exactly the events they did.

    Key-level epoch ordering re-pinned epoch-occ only (12216 events,
    clock 9570.460837694352 before): a commit waits for the earlier
    commits it conflicts with instead of the whole previous epoch, and
    validates and applies from its own gateway with no notification hop
    — the same requests, issued sooner, so a shorter run (the clock
    moves by -5.2%) and 291 fewer events.  kv and crdb execute exactly
    the events they did.

    Follower-served GLOBAL reads re-pinned epoch-occ only (11925 events,
    clock 9070.368223692114 before): an epoch-OCC read the executor
    routes NEAREST (the GLOBAL ``item`` rows) is a present-time read the
    gateway's own follower serves instead of a WAN round trip to the
    leaseholder — fewer messages and a shorter run (the clock moves by
    -15.9%), 749 fewer events.  kv and crdb execute exactly the events
    they did.

    Batches that seal on arrival re-pinned epoch-occ only (11176 events,
    clock 7632.438998542715 before): the epoch service orders a batch
    as soon as the order round before it is done instead of at a 25 ms
    boundary, so a commit no longer waits out the rest of its epoch —
    one order entry per writer where a few shared one (+10 proposals,
    +96 events) and a shorter run (the clock moves by -1.2%).  kv and
    crdb execute exactly the events they did.

    The commit index riding on the append re-pinned all three (9583 /
    11819 / 11272 events, clocks 2458.8795100993366 / 7388.122057696038
    / 7543.218957748096 before): no dedicated commit update per
    committed entry and follower, so kv -1259, crdb -1602 and epoch-occ
    -1163 events, and fewer jitter draws (the clocks move by under
    0.02%)."""

    def test_kv(self):
        engine, _ = run_fixed_workload("kv", 0, False, 0.25)
        sim = engine.cluster.sim
        assert (sim.events_processed, sim.now) == (8324, 2458.9232818731434)

    # Explicit ids: the default id embeds the pinned values, so every
    # re-pin would rename the test.
    @pytest.mark.parametrize("protocol,events,now", [
        ("crdb", 10217, 7388.056027717833),
        ("epoch-occ", 10109, 7544.540711327268)], ids=["crdb", "epoch-occ"])
    def test_tpcc(self, protocol, events, now):
        engine, _ = run_small_tpcc(protocol, False)
        sim = engine.cluster.sim
        assert (sim.events_processed, sim.now) == (events, now)


class TestCommitPathPins:
    """What a commit costs in Raft entries, as exact counts at seed 0:
    an auto-commit single-row UPDATE is one entry (two when it falls
    back to an intent), and every other transaction pays one resolve
    entry per range it wrote, whatever the number of keys — less the
    anchor range's when it wrote a commit record, which resolves them —
    and an INSERT is one conditional put, with no read before it."""

    @staticmethod
    def _counter(sim, name, **labels):
        return int(sum(
            c.value for c in sim.obs.registry.instruments(name)
            if all(dict(c.labels).get(k) == v for k, v in labels.items())))

    def test_kv_proposals_equal_updates(self):
        engine, _ = run_fixed_workload("kv", 0, False, 0.25)
        sim, stats = engine.cluster.sim, engine.coordinator.stats
        updates = self._counter(sim, "sql.statements", kind="update")
        assert updates == 328
        assert (stats.one_phase_commits, stats.one_phase_fallbacks) == (327, 1)
        assert self._counter(sim, "raft.proposals") == updates + 1
        assert engine.coordinator.distsender.resolve_batches == 0

    def test_tpcc_resolve_entries_equal_txn_range_pairs(self, monkeypatch):
        """A multi-range commit's record entry resolves the anchor
        range's intents, so it pays one resolve entry per range *but*
        the anchor; a single-range commit (no record) pays its one."""
        from repro.kv.commands import (BatchCommand, ResolveIntentCommand,
                                       SetTxnRecordCommand)
        from repro.txn.crdb import Transaction
        pairs, multi_range = [], []
        commit = Transaction.commit

        def counting(txn):
            ranges = {txn._ds.resolve(token, key).range_id
                      for token, key in txn.write_set.values()}
            pairs.append(len(ranges))
            multi_range.append(len(ranges) > 1)
            return commit(txn)

        monkeypatch.setattr(Transaction, "commit", counting)
        engine, _ = run_fixed_workload("tpcc", 0, False, 0.25)
        sim = engine.cluster.sim
        sim.run(until=sim.now + 1000.0)  # the last background cleanups

        def resolves(command):
            return (type(command) is ResolveIntentCommand
                    or type(command) is BatchCommand
                    and all(type(member) is ResolveIntentCommand
                            for member in command.commands))

        def record_with_resolves(command):
            return (type(command) is BatchCommand
                    and type(command.commands[0]) is SetTxnRecordCommand
                    and command.commands[0].key is None)

        log = [entry.command
               for span in engine.cluster.keyspace.spans.values()
               for rng in span.ranges()
               for entry in rng.group.leader.log]
        assert (sum(pairs), sum(multi_range)) == (228, 49)
        assert sum(map(resolves, log)) == sum(pairs) - sum(multi_range)
        assert sum(map(record_with_resolves, log)) == sum(multi_range)
        assert engine.coordinator.stats.one_phase_commits == 0

    def test_tpcc_inserts_are_conditional_puts(self, monkeypatch):
        """One KV request per INSERT: every INSERT statement is one
        conditional put, and none reads to see whether its row exists."""
        from repro.kv.distsender import DistSender
        from repro.sql.executor import Executor
        from repro.txn.crdb import Transaction
        reads, conditional_puts, insert_reads = {}, [], []
        write, insert = DistSender.write, Executor.insert

        def counting_write(ds, *args, expect_absent=False, **kwargs):
            conditional_puts.append(expect_absent)
            return write(ds, *args, expect_absent=expect_absent, **kwargs)

        def counting_insert(executor, txn, stmt, auto_commit=False):
            before = reads.get(txn.txn_id, 0)
            count = yield from insert(executor, txn, stmt, auto_commit)
            insert_reads.append(reads.get(txn.txn_id, 0) - before)
            return count

        for name in ("read", "read_batch"):
            def counting_read(txn, *args, _read=getattr(Transaction, name),
                              **kwargs):
                reads[txn.txn_id] = reads.get(txn.txn_id, 0) + 1
                return _read(txn, *args, **kwargs)
            monkeypatch.setattr(Transaction, name, counting_read)
        monkeypatch.setattr(DistSender, "write", counting_write)
        monkeypatch.setattr(Executor, "insert", counting_insert)
        run_fixed_workload("tpcc", 0, False, 0.25)
        assert len(insert_reads) == sum(conditional_puts) == 212
        assert sum(insert_reads) == 0


class TestGuardTimersDieWithWhatTheyGuard:
    """Every RPC deadline is cancelled when its RPC settles, so a shipped
    workload now drives ``cancel`` and ``_compact`` hard: the heap must
    stay a bounded multiple of its live entries, with no parked guards
    (before, ~2000 dead 5000 ms deadlines sat in a second heap)."""

    def test_small_tpcc_epoch_compacts_and_bounds_the_heap(self,
                                                           monkeypatch):
        from repro.sim import core
        floor = core._COMPACT_MIN_TOMBSTONES
        compactions, peak_heap = [], [0]
        cancel, compact = core.Simulator.cancel, core.Simulator._compact

        def counted_compact(sim):
            compactions.append(len(sim._heap))
            compact(sim)

        def checked_cancel(sim, event):
            cancel(sim, event)
            heap, dead = len(sim._heap), sim._tombstones
            # The compaction rule as a bound: the heap is never more
            # than twice its live entries plus one floor of tombstones.
            assert heap <= 2 * (heap - dead) + floor
            peak_heap[0] = max(peak_heap[0], heap)

        monkeypatch.setattr(core.Simulator, "_compact", counted_compact)
        monkeypatch.setattr(core.Simulator, "cancel", checked_cancel)
        _engine, recorder = run_small_tpcc("epoch-occ", False)
        assert recorder.total_ops() == 36
        assert len(compactions) >= 1
        # ~130 live timers plus at most a floor of tombstones — not the
        # ~2000 parked deadlines the parent carried.
        assert peak_heap[0] < 1_000


class TestParseCounts:
    """Exact front-end gates (ROADMAP 1c): ``parse`` runs once per SQL
    text, but lexing + parsing only once per distinct *shape* (plus once
    per DDL text) — not once per statement."""

    #: workload -> (parse calls, full lex+parse runs, DML shapes, DDL texts)
    EXPECTED = {"movr": (368, 10, 2, 8), "tpcc": (836, 25, 15, 10)}

    @pytest.mark.parametrize("workload,seed,scale", GOLDEN_CONFIGS[1:3])
    def test_full_parses_equal_distinct_shapes(self, workload, seed, scale,
                                               monkeypatch):
        from repro.sql import parser, session
        calls = {"parse": 0, "full": 0}

        def counted(name, fn):
            def wrapper(sql):
                calls[name] += 1
                return fn(sql)
            return wrapper

        parse = counted("parse", parser.parse)
        monkeypatch.setattr(parser, "parse", parse)    # parse_one's
        monkeypatch.setattr(session, "parse", parse)   # Session.execute's
        # ``parse`` lexes exactly when it must parse in full.
        monkeypatch.setattr(parser, "tokenize",
                            counted("full", parser.tokenize))
        parser._PARSE_CACHE.clear()
        run_fixed_workload(workload, seed, scale=scale)
        shapes = sum(isinstance(key, tuple) for key in parser._PARSE_CACHE)
        texts = sum(isinstance(key, str) for key in parser._PARSE_CACHE)
        assert (calls["parse"], calls["full"], shapes, texts) == \
            self.EXPECTED[workload]
        assert calls["full"] == shapes + texts
