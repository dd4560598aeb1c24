"""Observability spine: one metrics registry + tracer per simulation.

Every :class:`~repro.sim.core.Simulator` owns an :class:`Observability`
(as ``sim.obs``); components reach it through the ``sim`` handle they
already hold.  This package imports nothing from ``repro.sim`` so the
simulator core can depend on it without a cycle.

Observability has a per-run mode, and this is its whole definition:
``enabled=False`` means *no span ring, and no* ``net.hop_ms`` */*
``raft.commit_ms`` *samples* — the two per-message / per-proposal
distributions, which are what the flag buys (EXPERIMENTS.md "Round 9").
Every counter, every gauge and every per-operation histogram records
the same values in both modes, on the same :class:`MetricsRegistry`;
neither mode changes simulation behaviour.
"""

from __future__ import annotations

from typing import Callable

from .metrics import (Counter, Gauge, Histogram, Instrument,
                      MetricsRegistry, format_key, nearest_rank)
from .trace import (DETACHED, Span, Tracer, containment_violations,
                    critical_path, render_tree, spans_named)

__all__ = ["Observability", "MetricsRegistry", "Counter", "Gauge",
           "Histogram", "Instrument", "format_key", "nearest_rank",
           "DETACHED", "Span", "Tracer", "render_tree", "critical_path",
           "containment_violations", "spans_named"]


class Observability:
    """Registry + tracer bundle attached to a simulator.

    ``enabled=False`` hands out a ring-less tracer whose every span id
    is 0 (and tells the network and Raft to skip their two per-event
    distributions); ``trace_sample_every`` keeps 1 of every N requests
    (1 = trace everything) when enabled.
    """

    def __init__(self, now_fn: Callable[[], float], enabled: bool = True,
                 trace_sample_every: int = 1):
        self.enabled = enabled
        self.registry = MetricsRegistry()
        self.tracer = (Tracer(now_fn, sample_every=trace_sample_every)
                       if enabled else Tracer(now_fn, max_roots=0))
