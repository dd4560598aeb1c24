"""Unified metrics registry: Counter / Gauge / Histogram instruments.

Every subsystem (SQL, txn coordinator, DistSender, Raft, lock table,
network, liveness, repair, nemesis) records onto one
:class:`MetricsRegistry`, reachable as ``sim.obs.registry``.  Instruments
are identified by a name plus a label set; the registry is the single
point of truth, so a chaos scenario, a fig3–fig6 experiment and the
``python -m repro metrics`` CLI all read the same numbers.

This module imports nothing from ``repro.sim``, so the simulator core
can own a registry without an import cycle.  Everything here is
deterministic: snapshots iterate instruments in sorted key order and
values derive purely from what was recorded, so two same-seed runs
serialize byte-identically.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple, Type

__all__ = ["Counter", "Gauge", "Histogram", "Instrument",
           "MetricsRegistry", "format_key", "nearest_rank"]

#: Canonical (sorted) label representation.
LabelItems = Tuple[Tuple[str, str], ...]


def _num(value: float):
    """Round for export; collapse integral floats to ints for readability."""
    value = round(value, 6)
    return int(value) if float(value).is_integer() else value


def format_key(name: str, labels: LabelItems) -> str:
    """Prometheus-style display key: ``name{k=v,k2=v2}``."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def nearest_rank(ordered: List[float], p: float) -> float:
    """Nearest-rank percentile of pre-sorted samples (0.0 when empty)."""
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1,
                      int(round(p / 100.0 * (len(ordered) - 1)))))
    return float(ordered[rank])


class Instrument:
    """Base class: a named, labelled measurement."""

    __slots__ = ("name", "labels")

    kind = "instrument"

    def __init__(self, name: str, labels: LabelItems):
        self.name = name
        self.labels = labels

    @property
    def key(self) -> str:
        return format_key(self.name, self.labels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.key})"


class Counter(Instrument):
    """Monotonic (by convention) accumulating value."""

    __slots__ = ("value",)

    kind = "counter"

    def __init__(self, name: str, labels: LabelItems):
        super().__init__(name, labels)
        self.value: float = 0.0

    def inc(self, amount: float = 1) -> None:
        self.value += amount


class Gauge(Counter):
    """Point-in-time value that can also be set and move down."""

    __slots__ = ()

    kind = "gauge"

    def set(self, value: float) -> None:
        self.value = float(value)

    def dec(self, amount: float = 1) -> None:
        self.value -= amount


class Histogram(Instrument):
    """Sample distribution.

    Keeps raw samples (so :class:`~repro.obs.report.Summary` and
    CDF plots stay exact views) up to ``max_samples``; count / sum /
    min / max are tracked separately and stay exact even past the cap.
    The cap exists for high-volume instruments like per-hop network
    latency in long experiments; recorders that need every sample leave
    it unset.  ``min`` / ``max`` are +inf / -inf until the first sample.
    """

    __slots__ = ("samples", "count", "sum", "min", "max", "max_samples")

    kind = "histogram"

    def __init__(self, name: str, labels: LabelItems):
        super().__init__(name, labels)
        self.samples: List[float] = []
        self.count: int = 0
        self.sum: float = 0.0
        self.min: float = float("inf")
        self.max: float = float("-inf")
        #: Raw-sample retention cap (None = unbounded).
        self.max_samples: Optional[int] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if self.max_samples is None or len(self.samples) < self.max_samples:
            self.samples.append(value)

    @property
    def truncated(self) -> bool:
        return self.count > len(self.samples)

    def percentile(self, p: float, ordered: List[float] = None) -> float:
        """Nearest-rank percentile over the retained samples (pass them
        pre-sorted as ``ordered`` to sort once for several)."""
        return nearest_rank(
            sorted(self.samples) if ordered is None else ordered, p)

    def summary(self) -> Dict[str, float]:
        count = self.count
        ordered = sorted(self.samples)
        out = {"count": count,
               "sum": round(self.sum, 6),
               "mean": round(self.sum / count, 6) if count else 0.0,
               "min": round(float(self.min), 6) if count else 0.0,
               "max": round(float(self.max), 6) if count else 0.0,
               "p50": round(self.percentile(50, ordered), 6),
               "p95": round(self.percentile(95, ordered), 6),
               "p99": round(self.percentile(99, ordered), 6)}
        if self.truncated:
            out["truncated"] = True
        return out


class MetricsRegistry:
    """Get-or-create instrument store with deterministic export."""

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, LabelItems], Instrument] = {}

    # -- instrument access -------------------------------------------------

    def _get(self, cls: Type[Instrument], name: str, labels: Dict) -> Instrument:
        # Most lookups carry zero or one label; skip the sort (and its
        # allocations) for those — the resulting key is identical.
        n = len(labels)
        if n == 0:
            items: LabelItems = ()
        elif n == 1:
            [(k, v)] = labels.items()
            items = ((str(k), str(v)),)
        else:
            items = tuple(sorted(
                (str(k), str(v)) for k, v in labels.items()))
        key = (name, items)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, items)
            self._instruments[key] = instrument
        elif instrument.kind != cls.kind:
            raise TypeError(
                f"{format_key(name, items)} already registered as "
                f"{instrument.kind}, not {cls.kind}")
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, labels)

    def instruments(self, name: Optional[str] = None,
                    kind: Optional[str] = None) -> List[Instrument]:
        """All instruments (optionally filtered), sorted by display key."""
        out = [inst for inst in self._instruments.values()
               if (name is None or inst.name == name)
               and (kind is None or inst.kind == kind)]
        out.sort(key=lambda inst: inst.key)
        return out

    def value(self, name: str, **labels) -> float:
        """Current value of a counter/gauge (0.0 if never touched)."""
        items: LabelItems = tuple(sorted(
            (str(k), str(v)) for k, v in labels.items()))
        instrument = self._instruments.get((name, items))
        return getattr(instrument, "value", 0.0) if instrument else 0.0

    # -- export ------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict]:
        """Deterministic point-in-time dump, keyed by display key."""
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, float]] = {}
        for inst in self.instruments():
            if inst.kind == "counter":
                counters[inst.key] = _num(inst.value)
            elif inst.kind == "gauge":
                gauges[inst.key] = _num(inst.value)
            else:
                histograms[inst.key] = inst.summary()
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    @staticmethod
    def diff(before: Dict[str, Dict], after: Dict[str, Dict]) -> Dict[str, Dict]:
        """Delta between two :meth:`snapshot` dicts (after - before)."""
        out: Dict[str, Dict] = {"counters": {}, "gauges": {}, "histograms": {}}
        for section in ("counters", "gauges"):
            keys = set(before.get(section, {})) | set(after.get(section, {}))
            for key in sorted(keys):
                delta = (after.get(section, {}).get(key, 0.0)
                         - before.get(section, {}).get(key, 0.0))
                if delta:
                    out[section][key] = round(delta, 6)
        b_hists = before.get("histograms", {})
        a_hists = after.get("histograms", {})
        for key in sorted(set(b_hists) | set(a_hists)):
            b = b_hists.get(key, {})
            a = a_hists.get(key, {})
            d_count = a.get("count", 0) - b.get("count", 0)
            if d_count:
                out["histograms"][key] = {
                    "count": d_count,
                    "sum": round(a.get("sum", 0.0) - b.get("sum", 0.0), 6)}
        return out

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def render(self, prefix: Optional[str] = None) -> str:
        """Human-readable text dump for the ``repro metrics`` CLI."""
        def matching(kind: str) -> List[Instrument]:
            return [inst for inst in self.instruments(kind=kind)
                    if prefix is None or inst.name.startswith(prefix)]

        lines: List[str] = []
        counters = matching("counter")
        gauges = matching("gauge")
        histograms = matching("histogram")
        if counters:
            lines.append("counters:")
            for inst in counters:
                value = inst.value
                text = f"{int(value)}" if float(value).is_integer() else f"{value:.3f}"
                lines.append(f"  {inst.key:<56s} {text}")
        if gauges:
            lines.append("gauges:")
            for inst in gauges:
                lines.append(f"  {inst.key:<56s} {inst.value:.3f}")
        if histograms:
            lines.append("histograms:")
            for inst in histograms:
                s = inst.summary()
                lines.append(
                    f"  {inst.key:<56s} n={s['count']} mean={s['mean']:.2f} "
                    f"p50={s['p50']:.2f} p99={s['p99']:.2f} max={s['max']:.2f}")
        return "\n".join(lines) if lines else "(no metrics recorded)"
