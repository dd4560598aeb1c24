"""Observability spine: one metrics registry + tracer per simulation.

Every :class:`~repro.sim.core.Simulator` owns an :class:`Observability`
(as ``sim.obs``); components reach it through the ``sim`` handle they
already hold.  This package imports nothing from ``repro.sim`` so the
simulator core can depend on it without a cycle.

Observability has a per-run mode: ``enabled=True`` (the default) wires
the real :class:`MetricsRegistry` and a recording :class:`Tracer`;
``enabled=False`` substitutes the no-op registry from
:mod:`repro.obs.noop` and a ring-less tracer whose every span id is 0,
making every ``counter(...).inc()`` and ``tracer.start(...)`` an
allocation-free constant-time call.  Disabling observability never
changes simulation behaviour — only what gets recorded.
"""

from __future__ import annotations

from typing import Callable

from .metrics import (Counter, Gauge, Histogram, Instrument,
                      MetricsRegistry, format_key)
from .noop import NoopMetricsRegistry
from .trace import (DETACHED, Span, Tracer, containment_violations,
                    critical_path, render_tree, spans_named)

__all__ = ["Observability", "MetricsRegistry", "Counter", "Gauge",
           "Histogram", "Instrument", "format_key", "DETACHED", "Span",
           "Tracer", "render_tree", "critical_path",
           "containment_violations", "spans_named", "NoopMetricsRegistry"]


class Observability:
    """Registry + tracer bundle attached to a simulator.

    ``enabled=False`` selects the no-op fast path; ``trace_sample_every``
    keeps 1 of every N requests (1 = trace everything) when enabled.
    """

    def __init__(self, now_fn: Callable[[], float], enabled: bool = True,
                 trace_sample_every: int = 1):
        self.enabled = enabled
        self.registry = MetricsRegistry() if enabled else NoopMetricsRegistry()
        self.tracer = (Tracer(now_fn, sample_every=trace_sample_every)
                       if enabled else Tracer(now_fn, max_roots=0))
