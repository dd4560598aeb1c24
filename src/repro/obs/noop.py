"""No-op metrics: zero-cost stand-ins for MetricsRegistry and its instruments.

Selected per-run (``Simulator(obs_enabled=False)``): every component
still calls ``sim.obs.registry.counter(...).inc()`` unconditionally, but
these allocate nothing and record nothing.  (Tracing needs no stand-in:
a disabled :class:`~repro.obs.trace.Tracer` hands out span id 0, which
every recording call ignores.)  Disabling observability never perturbs
simulation behaviour — results are byte-identical between a traced and
a no-op run of the same seed (the obs-equivalence regression tests).
"""

from __future__ import annotations

from .metrics import Histogram, MetricsRegistry

__all__ = ["NoopInstrument", "NoopMetricsRegistry"]


class NoopInstrument(Histogram):
    """Counter/Gauge/Histogram stand-in: every recording call is accepted
    and dropped, so reads see an empty histogram whose ``value`` is 0
    (handle tuning lands on the shared instance, harmlessly)."""

    __slots__ = ("kind",)

    value = 0.0

    def __init__(self, kind: str):
        super().__init__("noop", ())
        self.kind = kind

    def inc(self, amount: float = 1) -> None:
        pass

    dec = set = observe = inc


_NOOP_COUNTER = NoopInstrument("counter")
_NOOP_GAUGE = NoopInstrument("gauge")
_NOOP_HISTOGRAM = NoopInstrument("histogram")


class NoopMetricsRegistry(MetricsRegistry):
    """A registry that never registers anything: it hands out shared
    no-op instruments, so every read and export path sees the
    empty-but-well-formed state of a fresh :class:`MetricsRegistry`."""

    def counter(self, name: str, **labels) -> NoopInstrument:
        return _NOOP_COUNTER

    def gauge(self, name: str, **labels) -> NoopInstrument:
        return _NOOP_GAUGE

    def histogram(self, name: str, **labels) -> NoopInstrument:
        return _NOOP_HISTOGRAM
