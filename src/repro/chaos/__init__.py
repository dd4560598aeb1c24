"""Chaos engineering: nemesis fault orchestration + invariant checking.

A :class:`~repro.chaos.nemesis.Nemesis` runs a declarative schedule of
timed fault events (inject at t, heal at t') against a cluster's
:class:`~repro.sim.network.FaultPlane` while seeded clients record an
operation :class:`~repro.chaos.invariants.History`.  Afterwards the
invariant checker audits the history against the database's final
state, Jepsen-style: no lost acknowledged writes, no dirty reads, and
bounded indeterminacy for ambiguous commits.

Built-in scenarios live in :mod:`repro.chaos.scenarios` and run via
``python -m repro chaos <scenario>``.
"""

from .invariants import (
    FAIL,
    INDETERMINATE,
    History,
    InvariantReport,
    OK,
    OpRecord,
    ScenarioResult,
    availability_timeline,
    check_history,
    render_timeline,
)
from .nemesis import FaultEvent, Nemesis
from .scenarios import ChaosHarness, SCENARIOS, run_scenario

__all__ = [
    "FAIL",
    "INDETERMINATE",
    "OK",
    "History",
    "InvariantReport",
    "OpRecord",
    "availability_timeline",
    "check_history",
    "render_timeline",
    "ChaosHarness",
    "FaultEvent",
    "Nemesis",
    "SCENARIOS",
    "ScenarioResult",
    "run_scenario",
]
