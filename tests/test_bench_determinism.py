"""Determinism guarantees behind every measured run.

Two properties make numbers comparable across PRs (``bench/`` asserts
the same per repetition), and both are checked here:

* **Observability equivalence** — running with observability off is a
  pure fast path: for a fixed seed it must produce byte-identical
  latency samples and final replica state to a fully-instrumented run,
  and the same counters, gauges and per-operation histograms — the mode
  drops the span ring and two per-event distributions, nothing else.
* **Repeatability** — a fixed seed and scale always simulates the same
  events, in one process as in another.  What those events cost (event
  and message counts, simulated time, op counts, latency percentiles)
  is pinned once, in the cost ledger (``python -m repro costs``,
  ``COSTS_golden.json``); here the snapshots and kernel pins compare
  with it, and two runs in one process must agree.
"""

import pytest

from repro.harness.costs import run_row
from repro.harness.tracing import run_fixed_workload, run_small_tpcc
from repro.verify import VerifyHarness


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

    def test_openloop_registry_identical_across_obs_modes(
            self, overload_obs_modes):
        """Admission queues, store work queues and retry budgets count
        the same in both modes (their fingerprints are compared in
        ``test_admission.py``)."""
        assert_registry_parity(overload_obs_modes[True][0].sim,
                               overload_obs_modes[False][0].sim)

    @pytest.mark.parametrize("scenario", ["crash-restart", "asym-partition"])
    def test_verify_scenario_identical_across_obs_modes(self, scenario):
        """Under faults too: crashes and restarts (crash-restart), lease
        failovers and DistSender retries (asym-partition) take the same
        course whether or not anyone records them, so a verify run's
        spans can be rebuilt later with ``repro trace --scenario S
        --seed N``."""
        runs = []
        for obs_enabled in (True, False):
            harness = VerifyHarness(1, obs_enabled=obs_enabled)
            runs.append((harness, harness.run(scenario=scenario)))
        (on, on_result), (off, off_result) = runs
        assert on_result.to_json() == off_result.to_json()
        assert on_result.history.dumps() == off_result.history.dumps()
        assert on.sim.events_processed == off.sim.events_processed
        assert on.sim.obs.tracer.roots
        assert off.sim.obs.tracer.roots == []
        assert_registry_parity(on.sim, off.sim)


#: The fixed-seed snapshots, ``(workload, seed, scale)``, by the cost
#: ledger row that holds them.  ``tpcc_epoch`` is :func:`run_small_tpcc`
#: under epoch-OCC (6 of the 40 transactions per client, hence 0.15).
SNAPSHOT_ROWS = {("kv", 0, 0.25): "kv", ("movr", 0, 0.2): "movr",
                 ("tpcc", 0, 0.25): "tpcc",
                 ("tpcc_epoch", 0, 0.15): "small-tpcc-epoch-occ"}


class TestGoldenSnapshots:
    @pytest.mark.parametrize("workload,seed,scale", list(SNAPSHOT_ROWS))
    def test_matches_golden(self, workload, seed, scale, cost_ledger):
        """A fixed seed and scale always simulates the same events: the
        event count, simulated time, op count, latency percentiles and
        cost counts (network messages, Raft proposals, RPC attempts, so
        events per op and messages per proposal are gated per seed) of
        one obs-on run equal the ledger row's, with no span tree
        dropped (or ``rpc_attempts`` undercounts)."""
        cost_ledger.assert_matches(
            SNAPSHOT_ROWS[workload, seed, scale], seed, "events", "clock",
            "ops", "latency_p50_ms", "latency_p99_ms", "messages_sent",
            "raft_proposals", "rpc_attempts", "dropped_roots")

    def test_repeat_runs_are_identical(self, cost_ledger):
        """Two runs in one process agree exactly — no hidden global
        state (module-level RNG, caches keyed on id()) leaks between
        engine instances: every field of the ledger's kv row repeats."""
        assert run_row("kv", 0) == cost_ledger.row("kv", 0)


class TestKernelPins:
    """Event count and final clock, exact, per protocol: a kernel change
    that adds, drops or reorders a single event moves these.  They are
    the ``events`` and ``clock`` of the ledger's ``kv/0``,
    ``small-tpcc-crdb/0`` and ``small-tpcc-epoch-occ/0`` (obs-off runs
    execute the same events: :class:`TestObsEquivalence`); CHANGES.md
    has the history of every re-pin."""

    def test_kv(self, cost_ledger):
        cost_ledger.assert_matches("kv", 0, "events", "clock")

    @pytest.mark.parametrize("protocol", ["crdb", "epoch-occ"])
    def test_tpcc(self, protocol, cost_ledger):
        cost_ledger.assert_matches(f"small-tpcc-{protocol}", 0, "events",
                                   "clock")


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
        assert self._counter(sim, "kv.resolve_batches") == 0

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
    per DDL text) — not once per statement.  The counts are the ledger
    row's ``parse_calls``, ``full_parses``, ``dml_shapes`` and
    ``ddl_texts``."""

    @pytest.mark.parametrize("workload,seed,scale",
                             [("movr", 0, 0.2), ("tpcc", 0, 0.25)])
    def test_full_parses_equal_distinct_shapes(self, workload, seed, scale,
                                               cost_ledger):
        config = SNAPSHOT_ROWS[workload, seed, scale]
        cost_ledger.assert_matches(config, seed, "parse_calls",
                                   "full_parses", "dml_shapes", "ddl_texts")
        row = cost_ledger.row(config, seed)
        assert row["full_parses"] == row["dml_shapes"] + row["ddl_texts"]
