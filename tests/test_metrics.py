"""Tests for latency recording, summaries, CDFs, and result tables."""

import importlib
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from repro.obs.report import LatencyRecorder, ResultTable, Summary, cdf_points
from repro.sim.core import Simulator


class TestSummary:
    def test_empty(self):
        summary = Summary([])
        assert summary.count == 0
        assert summary.p50 == 0.0

    def test_single_sample(self):
        summary = Summary([42.0])
        assert summary.count == 1
        assert summary.p50 == 42.0
        assert summary.max == 42.0

    def test_percentile_ordering(self):
        samples = list(range(1, 101))
        summary = Summary(samples)
        assert summary.p50 <= summary.p90 <= summary.p95 <= summary.p99 \
            <= summary.max

    def test_known_values(self):
        summary = Summary([1.0, 2.0, 3.0, 4.0, 5.0])
        assert summary.p50 == 3.0
        assert summary.mean == 3.0
        assert summary.min == 1.0

    def test_row_keys(self):
        row = Summary([1.0]).row()
        assert set(row) == {"count", "mean", "p50", "p90", "p95", "p99",
                            "max"}

    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=200))
    def test_property_bounds(self, samples):
        summary = Summary(samples)
        assert summary.min <= summary.p50 <= summary.max
        assert min(samples) == summary.min
        assert max(samples) == summary.max

    def test_empty_row_is_all_zero(self):
        row = Summary([]).row()
        assert row == {"count": 0, "mean": 0.0, "p50": 0.0, "p90": 0.0,
                       "p95": 0.0, "p99": 0.0, "max": 0.0}

    def test_single_sample_all_percentiles_equal(self):
        summary = Summary([7.5])
        assert summary.p50 == summary.p90 == summary.p95 == summary.p99 \
            == summary.max == 7.5
        assert summary.mean == 7.5

    def test_duplicate_latencies(self):
        summary = Summary([3.0] * 50)
        assert summary.count == 50
        assert summary.min == summary.p50 == summary.p99 == summary.max \
            == 3.0
        assert summary.mean == 3.0


class TestCdfPoints:
    def test_empty(self):
        assert cdf_points([]) == []

    def test_monotone(self):
        points = cdf_points([5.0, 1.0, 3.0, 2.0, 4.0])
        latencies = [p[0] for p in points]
        fractions = [p[1] for p in points]
        assert latencies == sorted(latencies)
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0

    def test_downsampling(self):
        points = cdf_points(list(range(10_000)), points=50)
        assert len(points) <= 50

    def test_single_sample(self):
        assert cdf_points([4.0]) == [(4.0, 1.0)]

    def test_points_exceeding_samples(self):
        points = cdf_points([1.0, 2.0, 3.0], points=100)
        assert [p[0] for p in points] == [1.0, 2.0, 3.0]
        assert points[-1][1] == 1.0

    def test_duplicate_latencies_stay_monotone(self):
        points = cdf_points([5.0, 5.0, 5.0, 1.0])
        fractions = [p[1] for p in points]
        assert fractions == sorted(fractions)
        assert points[-1] == (5.0, 1.0)


class TestLatencyRecorder:
    def test_record_and_fetch(self):
        recorder = LatencyRecorder()
        recorder.record(("read", "local"), 1.0)
        recorder.record(("read", "remote"), 100.0)
        recorder.record(("write", "local"), 5.0)
        assert recorder.samples("read") == [1.0, 100.0]
        assert recorder.samples("read", "local") == [1.0]
        assert recorder.count("write") == 1

    @pytest.mark.parametrize("obs_enabled", [True, False])
    def test_on_a_simulation_registry_in_either_obs_mode(self, obs_enabled):
        """With obs off the shared registry once dropped every sample."""
        registry = Simulator(obs_enabled=obs_enabled).obs.registry
        recorder = LatencyRecorder(registry)
        recorder.record(("read", "local"), 1.0)
        recorder.record(("read", "local"), 3.0)
        assert recorder.total_ops() == 2
        assert recorder.samples("read") == [1.0, 3.0]
        assert registry.snapshot()["histograms"][
            "latency_ms{label=read/local}"]["count"] == 2

    def test_prefix_matching(self):
        recorder = LatencyRecorder()
        recorder.record(("read", "local", "us-east1"), 1.0)
        recorder.record(("read", "local", "us-west1"), 2.0)
        assert len(recorder.samples("read", "local")) == 2
        assert recorder.samples("read", "local", "us-west1") == [2.0]

    def test_labels_sorted(self):
        recorder = LatencyRecorder()
        recorder.record(("b",), 1.0)
        recorder.record(("a",), 1.0)
        assert recorder.labels() == [("a",), ("b",)]

    def test_throughput(self):
        recorder = LatencyRecorder()
        recorder.started_at = 0.0
        recorder.finished_at = 2000.0
        for _ in range(10):
            recorder.record(("op",), 1.0)
        assert recorder.throughput_per_s() == pytest.approx(5.0)

    def test_throughput_without_window(self):
        assert LatencyRecorder().throughput_per_s() == 0.0

    def test_merged(self):
        a = LatencyRecorder()
        b = LatencyRecorder()
        a.record(("x",), 1.0)
        b.record(("x",), 2.0)
        merged = a.merged(b)
        assert merged.samples("x") == [1.0, 2.0]

    def test_merged_preserves_widest_window(self):
        # Regression: merged() used to drop started_at/finished_at, so
        # throughput_per_s() on the merged recorder always returned 0.
        a = LatencyRecorder()
        a.started_at, a.finished_at = 100.0, 1100.0
        b = LatencyRecorder()
        b.started_at, b.finished_at = 500.0, 2100.0
        for _ in range(4):
            a.record(("op",), 1.0)
            b.record(("op",), 1.0)
        merged = a.merged(b)
        assert merged.started_at == 100.0
        assert merged.finished_at == 2100.0
        assert merged.throughput_per_s() == pytest.approx(4.0)

    def test_merged_window_with_one_sided_none(self):
        a = LatencyRecorder()
        a.started_at, a.finished_at = 0.0, 1000.0
        b = LatencyRecorder()  # never ran: no window at all
        a.record(("op",), 1.0)
        merged = a.merged(b)
        assert merged.started_at == 0.0
        assert merged.finished_at == 1000.0
        assert merged.throughput_per_s() == pytest.approx(1.0)


class TestResultTable:
    def test_render_contains_rows(self):
        table = ResultTable("t", ["a", "b"])
        table.add_row("x", 1.25)
        text = table.render()
        assert "x" in text
        assert "1.2" in text
        assert "== t ==" in text

    def test_row_arity_checked(self):
        table = ResultTable("t", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("only-one")


class TestOneMetricsPackage:
    """``repro.metrics`` and ``repro.obs.noop`` are gone — nothing
    re-exports their names from the old paths — and every module of
    ``repro`` imports on the standard library alone: none pulls numpy
    in."""

    @pytest.mark.parametrize("module", [
        "repro.metrics", "repro.metrics.histogram", "repro.metrics.results",
        "repro.obs.noop"])
    def test_old_paths_are_not_importable(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    def test_kernel_and_registry_import_without_numpy(self):
        code = ("import importlib, pkgutil, sys, repro, repro.obs\n"
                "assert hasattr(repro.obs, 'MetricsRegistry')\n"
                "assert not hasattr(repro.obs, 'NoopMetricsRegistry')\n"
                "for module in pkgutil.walk_packages(repro.__path__, "
                "'repro.'):\n"
                "    importlib.import_module(module.name)\n"
                "assert 'repro.obs.report' in sys.modules\n"
                "sys.exit('numpy' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
