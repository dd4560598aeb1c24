"""What observability costs, pinned without a wall clock.

Deterministic properties stand in for "cheap enough to leave on":

* recording spans creates nothing the cyclic garbage collector has to
  track, so a traced run's heap does not grow a forest of span objects;
* the span ring is bounded: past capacity the oldest *whole* trees go,
  and a stale id can never write into the slot's new owner.

The instrumentation each pinned run executes (spans, counter events,
histogram observations) is an exact count in the cost ledger
(``python -m repro costs``), so a new hot-path span or metric shows up
as a diff there; the kv row's counts are compared here too.
"""

import gc

from repro.obs import DETACHED, Tracer


def _tracked_objects() -> int:
    gc.collect()
    return len(gc.get_objects())


class TestRecordingAllocatesNothingTracked:
    def test_ten_thousand_cycles_grow_the_gc_heap_by_a_constant(self):
        clock = {"now": 0.0}
        tracer = Tracer(lambda: clock["now"])
        def cycle(i):
            clock["now"] += 1.0
            root = tracer.start(
                "stmt", None, ("kind", "select", "region", "us-east1"))
            child = tracer.start("rpc", root, ("attempt", i, "dst", i % 9))
            tracer.tag(child, "req_ms", 0.5 + i)
            tracer.finish(child, "error", None)
            tracer.finish(root)

        for i in range(100):  # first ring chunk
            cycle(i)
        before = _tracked_objects()
        for i in range(10_000):
            cycle(i)
        grown = _tracked_objects() - before
        # The parent commit's Span + tags dict + children list would be
        # ~60,000 here; the columns only grow in place.
        assert grown < 50, grown
        assert tracer.dropped_roots == 10_100 - tracer.max_roots
        assert len(tracer.roots) == tracer.max_roots


class TestRingWrap:
    def _tree(self, tracer, name, children):
        root = tracer.start(name)
        ids = [root] + [tracer.start(name, root) for _ in range(children)]
        for span in reversed(ids):
            tracer.finish(span)
        return ids

    def test_drops_oldest_whole_trees_and_ignores_stale_ids(self):
        clock = {"now": 0.0}
        tracer = Tracer(lambda: clock["now"], max_roots=4)  # 64 slots
        name = "op"
        first = self._tree(tracer, name, 19)            # ids 1..20
        second_root = tracer.start(name)                # id 21: stays open
        straggler = tracer.start(name, first[0])        # id 22, tree 1
        second = [second_root] + [tracer.start(name, second_root)
                                  for _ in range(18)]   # ids 23..40
        self._tree(tracer, name, 19)                    # ids 41..60
        assert tracer.dropped_roots == 0
        assert [len(list(r.walk())) for r in tracer.roots] == [21, 19, 20]

        clock["now"] = 5.0
        self._tree(tracer, name, 19)                    # ids 61..80 wrap
        # Tree 1 went whole — its straggler too, though id 22's slot is
        # still intact — and nothing else did.
        assert tracer.dropped_roots == 1
        assert [r.span_id for r in tracer.roots] == [21, 41, 61]
        assert [len(list(r.walk())) for r in tracer.roots] == [19, 20, 20]
        assert straggler not in {s.span_id for s in tracer.spans()}

        # Stale ids: slot 1 now belongs to span 65.  Tagging, finishing
        # or parenting on the evicted ids must leave the export as is.
        before = tracer.to_json()
        for stale in (first[0], first[5]):
            tracer.tag(stale, "late", True)
            tracer.finish(stale, "late", True)
            assert tracer.start(name, stale) == 0
        # The straggler's own slot is not reused yet, so it still takes
        # writes and children — none of which reach an export.
        tracer.finish(tracer.start(name, straggler), "late", True)
        assert tracer.to_json() == before

        # A live id from before the wrap still works.
        clock["now"] = 9.0
        tracer.finish(second_root, "status", "ok")
        root = tracer.roots[0]
        assert (root.span_id, root.end_ms, root.tags) == (
            21, 9.0, {"status": "ok"})
        assert len(second) == 19

    def test_max_roots_bounds_the_number_of_trees(self):
        tracer = Tracer(lambda: 0.0, max_roots=3)
        name = "op"
        for _ in range(5):
            self._tree(tracer, name, 2)
        assert [r.span_id for r in tracer.roots] == [7, 10, 13]
        assert tracer.dropped_roots == 2
        assert all(len(r.children) == 2 for r in tracer.roots)


    def test_random_interleavings_only_ever_lose_whole_oldest_trees(self):
        import random
        rng = random.Random(7)
        for max_roots in (1, 2, 5):
            tracer = Tracer(lambda: 0.0, max_roots=max_roots)
            parent_of, roots_started = {}, []
            for step in range(600):
                # Mostly children of recent spans: trees big enough that
                # the ring wraps before ``max_roots`` is reached.
                recent = sorted(parent_of)[-12:]
                parent = rng.choice(recent) if recent and rng.random() < 0.96 \
                    else rng.choice((None, DETACHED))
                span = tracer.start("op", parent)
                if span:
                    if parent in (None, DETACHED):
                        roots_started.append(span)
                    parent_of[span] = parent if parent and parent > 0 else 0
                    tracer.finish(span if rng.random() < 0.5 else parent or 0)
                if step % 7 == 0:
                    self._check(tracer, parent_of, roots_started, max_roots)

    @staticmethod
    def _check(tracer, parent_of, roots_started, max_roots):
        exported = tracer.roots
        kept = [r.span_id for r in exported]
        assert kept == roots_started[len(roots_started) - len(kept):]
        assert len(kept) <= max_roots
        assert tracer.dropped_roots == len(roots_started) - len(kept)
        # Every kept tree has every span ever recorded under it.
        root_of = {}
        for span in sorted(parent_of):
            root_of[span] = root_of.get(parent_of[span], span)
        for root in exported:
            want = sorted(s for s, r in root_of.items() if r == root.span_id)
            assert sorted(s.span_id for s in root.walk()) == want
        assert sum(1 for _ in tracer.spans()) <= 16 * max_roots


class TestPerOpCostCounters:
    """Exact instrumentation counts for the kv benchmark at scale 0.25,
    seed 0 (schema, load and 600 client operations): the ledger's
    ``kv/0`` row, with the ring dropping no tree (or the span count
    undercounts)."""

    def test_counts_match_pinned(self, cost_ledger):
        cost_ledger.assert_matches("kv", 0, "ops", "spans", "counter_events",
                                   "observations", "dropped_roots")
