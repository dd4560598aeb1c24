"""Chaos engineering: nemesis fault orchestration.

A :class:`~repro.chaos.nemesis.Nemesis` runs a declarative schedule of
timed fault events (inject at t, heal at t') against a cluster's
:class:`~repro.sim.network.FaultPlane`.  The schedules themselves are
built by :mod:`repro.chaos.faults`; each is the nemesis of a
:data:`repro.verify.SCENARIOS` row, whose harness runs the clients and
whose Elle-style checker judges the history
(``python -m repro verify --scenario <name>``).  The overload scenarios
(:mod:`repro.chaos.overload`) have load, not faults, as their nemesis
and run as ``python -m repro overload <name>``.
"""

from .faults import build_faults
from .nemesis import FaultEvent, Nemesis

__all__ = ["FaultEvent", "Nemesis", "build_faults"]
