"""Experiment-side reading of the registry: latency recorders,
percentile summaries, CDFs and the result tables the paper reports.

:class:`LatencyRecorder` is a thin view over ``latency_ms``
:class:`~repro.obs.metrics.Histogram` instruments, one per label tuple,
whose raw samples back :class:`Summary` and :func:`cdf_points` exactly;
attached to the simulation's shared registry, the same numbers show up
in ``python -m repro metrics``.  Percentiles interpolate linearly between
the two nearest ranks (Hyndman and Fan's definition 7, the usual
default of numeric libraries).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from .metrics import Histogram, MetricsRegistry

__all__ = ["LatencyRecorder", "Summary", "cdf_points", "ResultTable"]


class Summary:
    """Percentile summary of a latency sample."""

    def __init__(self, samples: Sequence[float]):
        self.count = len(samples)
        if self.count:
            ordered = sorted(map(float, samples))
            self.mean = math.fsum(ordered) / self.count
            self.p50 = _percentile(ordered, 50)
            self.p90 = _percentile(ordered, 90)
            self.p95 = _percentile(ordered, 95)
            self.p99 = _percentile(ordered, 99)
            self.max = ordered[-1]
            self.min = ordered[0]
        else:
            self.mean = self.p50 = self.p90 = self.p95 = self.p99 = 0.0
            self.max = self.min = 0.0

    def row(self) -> Dict[str, float]:
        return {"count": self.count, "mean": self.mean, "p50": self.p50,
                "p90": self.p90, "p95": self.p95, "p99": self.p99,
                "max": self.max}

    def __repr__(self) -> str:
        return (f"Summary(n={self.count} p50={self.p50:.1f} "
                f"p90={self.p90:.1f} p99={self.p99:.1f} max={self.max:.1f})")


def _percentile(ordered: List[float], q: float) -> float:
    """The ``q``-th percentile of sorted ``ordered``, interpolated
    linearly between the two nearest ranks.  Past the midpoint it
    interpolates down from the upper rank, which rounds as the usual
    vectorised implementations do."""
    index = (len(ordered) - 1) * (q / 100)
    lo = math.floor(index)
    frac = index - lo
    a = ordered[lo]
    b = ordered[min(lo + 1, len(ordered) - 1)]
    if frac >= 0.5:
        return b - (b - a) * (1 - frac)
    return a + (b - a) * frac


def cdf_points(samples: Sequence[float],
               points: int = 200) -> List[Tuple[float, float]]:
    """(latency, cumulative fraction) pairs for plotting CDFs (Fig 5):
    ``min(points, n)`` evenly spaced ranks from the first to the last."""
    if not samples:
        return []
    ordered = sorted(map(float, samples))
    n = len(ordered)
    k = min(points, n)
    if k == 1:
        indices = [0]
    else:
        step = (n - 1) / (k - 1)
        indices = sorted({int(i * step) for i in range(k - 1)} | {n - 1})
    return [(ordered[i], (i + 1) / n) for i in indices]


class LatencyRecorder:
    """Collects latency samples keyed by a label tuple.

    Labels are free-form, e.g. ``("read", "local")`` or
    ``("write", "us-east1")``.  Throughput is derived from the recorded
    operation count and the simulated duration.  Samples live in
    ``latency_ms`` histograms on ``registry`` (a private registry when
    none is given, so standalone recorders keep working).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.registry = (registry if registry is not None
                         else MetricsRegistry())
        #: label tuple -> backing histogram (the registry key flattens
        #: the tuple, so the real tuples are tracked here).
        self._hists: Dict[Tuple, Histogram] = {}
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    def _hist(self, label: Tuple) -> Histogram:
        hist = self._hists.get(label)
        if hist is None:
            hist = self.registry.histogram(
                "latency_ms", label="/".join(str(p) for p in label))
            self._hists[label] = hist
        return hist

    def record(self, label: Tuple, latency_ms: float) -> None:
        self._hist(tuple(label)).observe(latency_ms)

    def labels(self) -> List[Tuple]:
        return sorted(self._hists.keys())

    def samples(self, *label_parts) -> List[float]:
        """All samples whose label starts with ``label_parts``."""
        out: List[float] = []
        for label in sorted(self._hists):
            if label[:len(label_parts)] == tuple(label_parts):
                out.extend(self._hists[label].samples)
        return out

    def summary(self, *label_parts) -> Summary:
        return Summary(self.samples(*label_parts))

    def count(self, *label_parts) -> int:
        return len(self.samples(*label_parts))

    def total_ops(self) -> int:
        return sum(hist.count for hist in self._hists.values())

    def throughput_per_s(self) -> float:
        if self.started_at is None or self.finished_at is None:
            return 0.0
        elapsed_ms = self.finished_at - self.started_at
        if elapsed_ms <= 0:
            return 0.0
        return self.total_ops() / (elapsed_ms / 1000.0)

    def merged(self, other: "LatencyRecorder") -> "LatencyRecorder":
        """A new standalone recorder holding both sample sets.

        The recording window is the union of the inputs' windows, so
        ``throughput_per_s`` stays meaningful on the merge (it used to
        come back 0.0 because the window was dropped).
        """
        out = LatencyRecorder()
        for src in (self, other):
            for label, hist in src._hists.items():
                for value in hist.samples:
                    out.record(label, value)
        starts = [s.started_at for s in (self, other)
                  if s.started_at is not None]
        finishes = [s.finished_at for s in (self, other)
                    if s.finished_at is not None]
        out.started_at = min(starts) if starts else None
        out.finished_at = max(finishes) if finishes else None
        return out


class ResultTable:
    """A simple fixed-width table for benchmark output."""

    def __init__(self, title: str, columns: Sequence[str]):
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}")
        self.rows.append([_fmt(v) for v in values])

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [f"== {self.title} =="]
        header = "  ".join(c.ljust(widths[i])
                           for i, c in enumerate(self.columns))
        lines.append(header)
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(cell.ljust(widths[i])
                                   for i, cell in enumerate(row)))
        return "\n".join(lines)

    def print(self) -> None:
        print()
        print(self.render())


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)
