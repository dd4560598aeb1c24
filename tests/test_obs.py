"""Observability spine tests: metrics registry, tracer, and the
end-to-end acceptance criteria of the tracing PR.

Covers the unit behaviour of ``repro.obs`` (label canonicalisation,
kind collisions, snapshots/diffs, histogram caps, span lifecycle) and
the integration bars: every RPC in a fault scenario is attributable to
a root span, the movr trace contains an explicit commit-wait span for
the GLOBAL-table write with child-within-parent containment, and two
same-seed runs serialize byte-identical traces and metrics.
"""

import json

import pytest

from repro.harness.runner import build_engine
from repro.harness.tracing import (DEFAULT_REGIONS, run_traced_workload,
                                   trace_roots)
from repro.obs import (
    DETACHED,
    MetricsRegistry,
    Tracer,
    containment_violations,
    critical_path,
    render_tree,
    spans_named,
)
from repro.verify import VerifyHarness


class TestMetricsRegistry:
    def test_counter_get_or_create(self):
        registry = MetricsRegistry()
        registry.counter("ops").inc()
        registry.counter("ops").inc(2)
        assert registry.value("ops") == 3

    def test_label_order_is_canonical(self):
        registry = MetricsRegistry()
        a = registry.counter("ops", region="us-east1", kind="read")
        b = registry.counter("ops", kind="read", region="us-east1")
        assert a is b
        assert a.key == "ops{kind=read,region=us-east1}"

    def test_kind_collision_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_gauge_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec()
        assert gauge.value == 6.0

    def test_histogram_summary(self):
        hist = MetricsRegistry().histogram("h")
        for v in [1.0, 2.0, 3.0, 4.0]:
            hist.observe(v)
        s = hist.summary()
        assert s["count"] == 4
        assert s["sum"] == 10.0
        assert s["mean"] == 2.5
        assert s["min"] == 1.0 and s["max"] == 4.0
        assert "truncated" not in s

    def test_histogram_sample_cap_keeps_exact_aggregates(self):
        hist = MetricsRegistry().histogram("h")
        hist.max_samples = 10
        for v in range(100):
            hist.observe(float(v))
        assert len(hist.samples) == 10
        assert hist.count == 100
        assert hist.max == 99.0
        assert hist.truncated
        assert hist.summary()["truncated"] is True

    def test_snapshot_and_diff(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        before = registry.snapshot()
        registry.counter("c").inc(3)
        registry.gauge("g").set(7)
        registry.histogram("h").observe(5.0)
        after = registry.snapshot()
        delta = MetricsRegistry.diff(before, after)
        assert delta["counters"]["c"] == 3
        assert delta["gauges"]["g"] == 7
        assert delta["histograms"]["h"] == {"count": 1, "sum": 5.0}

    def test_instruments_sorted_and_filtered(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.counter("a", x="1")
        registry.gauge("c")
        counters = registry.instruments(kind="counter")
        assert [inst.key for inst in counters] == ["a{x=1}", "b"]

    def test_render_prefix_filter(self):
        registry = MetricsRegistry()
        registry.counter("txn.begun").inc()
        registry.counter("net.messages").inc()
        text = registry.render(prefix="txn.")
        assert "txn.begun" in text
        assert "net.messages" not in text

    def test_histogram_summary_matches_percentile(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        assert hist.summary()["min"] == 0.0 and hist.summary()["max"] == 0.0
        for value in (5, 1.5, 9.25, 3):
            hist.observe(value)
        summary = hist.summary()
        assert (summary["min"], summary["max"]) == (1.5, 9.25)
        assert summary["sum"] == 18.75
        for p in (50, 95, 99):
            assert summary[f"p{p}"] == hist.percentile(p)


class TestTracer:
    def _tracer(self):
        clock = {"now": 0.0}
        return clock, Tracer(lambda: clock["now"])

    def test_span_ids_start_at_one_and_increment(self):
        _, tracer = self._tracer()
        a = tracer.start("a")
        b = tracer.start("b", a)
        assert (a, b) == (1, 2)
        [root] = tracer.roots
        assert (root.span_id, root.name) == (1, "a")
        assert [(c.span_id, c.name) for c in root.children] == [(2, "b")]

    def test_zero_parent_records_nothing(self):
        _, tracer = self._tracer()
        assert tracer.start("child", 0) == 0
        tracer.tag(0, "k", 1)
        tracer.finish(0)
        assert tracer.roots == []

    def test_disabled_tracer_hands_out_zero(self):
        tracer = Tracer(lambda: 0.0, max_roots=0)
        assert tracer.start("op") == 0
        assert tracer.start("op", DETACHED) == 0
        assert tracer.to_json() == "[]"

    def test_sampling_counts_client_roots_only(self):
        tracer = Tracer(lambda: 0.0, sample_every=2)
        kept = [tracer.start("stmt") for _ in range(4)]
        assert [bool(span) for span in kept] == [True, False, True, False]
        # A detached root is exempt (its caller starts it only under a
        # traced request) and does not advance the request counter.
        assert tracer.start("cleanup", DETACHED) != 0
        assert tracer.start("stmt") != 0
        assert tracer.start("child", kept[1]) == 0
        assert tracer.sampled_out_roots == 2

    def test_finish_is_idempotent(self):
        clock, tracer = self._tracer()
        span = tracer.start("op")
        clock["now"] = 10.0
        tracer.finish(span)
        clock["now"] = 99.0
        tracer.finish(span, "late", True)  # late ack: tags merge, end stays
        [view] = tracer.roots
        assert view.end_ms == 10.0
        assert view.tags["late"] is True
        assert view.duration_ms == 10.0

    def test_tags_are_rounded_and_stringified_at_export(self):
        _, tracer = self._tracer()
        span = tracer.start("op", None, ("target", (1, 2)))
        tracer.tag(span, "delay_ms", 1.23456)
        tracer.tag(span, "delay_ms", 2.34567)  # later value wins
        [view] = tracer.roots
        assert view.tags == {"target": "(1, 2)", "delay_ms": 2.346}

    def test_containment_violations_flags_escaping_child(self):
        clock, tracer = self._tracer()
        parent = tracer.start("p")
        clock["now"] = 5.0
        child = tracer.start("c", parent)
        clock["now"] = 8.0
        tracer.finish(parent)
        clock["now"] = 12.0
        tracer.finish(child)
        problems = containment_violations(tracer.roots[0])
        assert any("ends after" in p for p in problems)

    def test_unfinished_span_reported(self):
        _, tracer = self._tracer()
        root = tracer.start("p")
        tracer.finish(root)
        tracer.start("c", root)
        assert any("never finished" in p
                   for p in containment_violations(tracer.roots[0]))

    def test_critical_path_follows_latest_child(self):
        clock, tracer = self._tracer()
        root = tracer.start("root")
        fast = tracer.start("fast", root)
        clock["now"] = 1.0
        tracer.finish(fast)
        slow = tracer.start("slow", root)
        clock["now"] = 9.0
        tracer.finish(slow)
        clock["now"] = 10.0
        tracer.finish(root)
        [view] = tracer.roots
        assert [s.name for s in critical_path(view)] == ["root", "slow"]

    def test_max_roots_drops_oldest(self):
        clock = {"now": 0.0}
        tracer = Tracer(lambda: clock["now"], max_roots=2)
        for name in ("a", "b", "c"):
            tracer.finish(tracer.start(name))
        assert [r.name for r in tracer.roots] == ["b", "c"]
        assert tracer.dropped_roots == 1

    def test_to_json_round_trips(self):
        _, tracer = self._tracer()
        root = tracer.start("op", None, ("kind", "write"))
        tracer.finish(tracer.start("child", root))
        tracer.finish(root)
        data = json.loads(tracer.to_json())
        assert data[0]["name"] == "op"
        assert data[0]["tags"] == {"kind": "write"}
        assert data[0]["children"][0]["name"] == "child"

    def test_render_tree_mentions_every_span(self):
        _, tracer = self._tracer()
        root = tracer.start("root")
        tracer.finish(tracer.start("leaf", root))
        tracer.finish(root)
        text = render_tree(tracer.roots[0])
        assert "root #1" in text and "leaf #2" in text


class TestTracedWorkloads:
    @pytest.fixture(scope="class")
    def movr_engine(self):
        return run_traced_workload("movr", seed=0)

    def test_global_write_has_commit_wait_span(self, movr_engine):
        roots = trace_roots(movr_engine)
        waits = [w for r in roots for w in spans_named(r, "txn.commit_wait")]
        assert waits, "GLOBAL-table write produced no commit-wait span"
        for wait in waits:
            assert wait.duration_ms > 0
            assert wait.tags["waited_ms"] > 0
            # The wait hangs off the commit, under the statement's root.
            assert wait.parent.name == "txn.commit"
            assert wait.root().name == "sql.stmt"

    def test_span_durations_sum_consistently(self, movr_engine):
        roots = trace_roots(movr_engine)
        assert roots
        for root in roots:
            assert containment_violations(root) == []

    def test_every_rpc_attempt_reaches_a_root(self, movr_engine):
        tracer = movr_engine.cluster.sim.obs.tracer
        root_set = set(map(id, tracer.roots))
        attempts = [s for s in tracer.spans() if s.name == "rpc.attempt"]
        assert attempts
        for attempt in attempts:
            assert attempt.parent is not None
            assert id(attempt.root()) in root_set

    def test_kv_workload_traces(self):
        engine = run_traced_workload("kv", seed=0)
        roots = trace_roots(engine)
        assert any(spans_named(r, "kv.write") for r in roots)
        for root in roots:
            assert containment_violations(root) == []

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError):
            run_traced_workload("nope")


class TestSampling:
    """``trace_sample_every=N`` keeps 1 in N *requests*, whole."""

    REQUESTS = 11

    def _run(self, sample_every):
        engine = build_engine(DEFAULT_REGIONS, seed=0, obs_enabled=True,
                              trace_sample_every=sample_every)
        others = ", ".join(f'"{r}"' for r in DEFAULT_REGIONS[1:])
        home = engine.connect(DEFAULT_REGIONS[0])
        home.execute(f'CREATE DATABASE kv PRIMARY REGION '
                     f'"{DEFAULT_REGIONS[0]}" REGIONS {others}')
        # ``v`` UNIQUE: the row write is not the INSERT's last KV
        # operation, so it lays intents (no one-phase commit) that a
        # background cleanup resolves.
        home.execute("CREATE TABLE kv (k int PRIMARY KEY, v string UNIQUE)")
        sim = engine.cluster.sim
        sim.run(until=sim.now + 1000.0)
        # Writes (each also mints a background txn.cleanup root) and
        # reads, mixed so every stride keeps some of both.
        for i in range(self.REQUESTS):
            if i % 3 == 2:
                home.execute(f"SELECT v FROM kv WHERE k = {i - 1}")
            else:
                home.execute(f"INSERT INTO kv (k, v) VALUES ({i}, 'v{i}')")
        sim.run(until=sim.now + 1000.0)  # let cleanups finish
        return engine.cluster.sim.obs.tracer

    @staticmethod
    def _shape(span):
        return (span.name, tuple(TestSampling._shape(c)
                                 for c in span.children))

    def _per_request(self, tracer):
        """Root-tree shapes grouped by the request that caused them."""
        groups = []
        for root in tracer.roots:
            if root.name == "sql.stmt":
                groups.append([root])
                continue
            assert root.name == "txn.cleanup", root.name
            txn_ids = {s.tags["txn_id"]
                       for s in spans_named(groups[-1][0], "txn")}
            assert root.tags["txn_id"] in txn_ids
            groups[-1].append(root)
        return [[self._shape(root) for root in group] for group in groups]

    @pytest.fixture(scope="class")
    def unsampled(self):
        tracer = self._run(1)
        groups = self._per_request(tracer)
        assert len(groups) == self.REQUESTS
        assert any(len(g) == 2 for g in groups), "no txn.cleanup roots"
        return groups

    @pytest.mark.parametrize("sample_every", [1, 2, 5])
    def test_keeps_one_request_in_n_whole(self, unsampled, sample_every):
        tracer = self._run(sample_every)
        kept = unsampled[::sample_every]
        assert len(kept) == -(-self.REQUESTS // sample_every)
        # Exactly the kept requests' trees, each complete; nothing from
        # a sampled-out request (not even its background cleanup).
        assert self._per_request(tracer) == kept
        assert (sum(1 for _ in tracer.spans())
                == sum(self._count(shape) for g in kept for shape in g))
        assert tracer.sampled_out_roots == self.REQUESTS - len(kept)
        for root in tracer.roots:
            assert containment_violations(root) == []

    @staticmethod
    def _count(shape):
        return 1 + sum(TestSampling._count(c) for c in shape[1])


class TestExportPinning:
    """The export format is pinned to what the pre-ring tracer printed
    (``python -m repro trace|metrics --workload movr --json``): span
    ids, tag keys, rounding, child order.  The ledger's ``trace-movr/0``
    holds the sha256 of each export, ``to_json()`` plus a newline."""

    def test_trace_json_is_byte_identical(self, cost_ledger):
        cost_ledger.assert_matches("trace-movr", 0, "trace_sha256")

    def test_metrics_json_is_byte_identical(self, cost_ledger):
        cost_ledger.assert_matches("trace-movr", 0, "metrics_sha256")


class TestDeterminism:
    def test_same_seed_trace_and_metrics_are_byte_identical(self):
        first = run_traced_workload("movr", seed=3)
        second = run_traced_workload("movr", seed=3)
        obs_a = first.cluster.sim.obs
        obs_b = second.cluster.sim.obs
        assert obs_a.tracer.to_json() == obs_b.tracer.to_json()
        assert obs_a.registry.to_json() == obs_b.registry.to_json()

    def test_different_seeds_may_differ_but_stay_well_formed(self):
        engine = run_traced_workload("movr", seed=7)
        for root in trace_roots(engine):
            assert containment_violations(root) == []


class TestChaosAttribution:
    def test_chaos_rpcs_attributable_and_metrics_snapshot_present(self):
        harness = VerifyHarness(0, obs_enabled=True)
        harness.run(scenario="crash-restart")
        tracer = harness.sim.obs.tracer
        attempts = [s for s in tracer.spans() if s.name == "rpc.attempt"]
        assert attempts, "chaos scenario issued no traced RPCs"
        root_set = set(map(id, tracer.roots))
        for attempt in attempts:
            assert attempt.parent is not None, \
                f"orphan rpc.attempt #{attempt.span_id}"
            assert id(attempt.root()) in root_set
        # The registry saw the nemesis and the transactions.
        snap = harness.sim.obs.registry.snapshot()
        assert any(k.startswith("nemesis.events{action=inject")
                   for k in snap["counters"])
        assert any(k.startswith("txn.") for k in snap["counters"])
