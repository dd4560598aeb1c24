"""Runs that more than one test module reads, made once per session."""

import functools

import pytest

from repro.harness import golden
from repro.harness.costs import GOLDEN_PATH, OVERLOAD_CONFIG, run_row
from repro.harness.openloop import OpenLoopConfig, OpenLoopHarness


@pytest.fixture(scope="session")
def overload_obs_modes():
    """The cost ledger's ``overload/0`` configuration, run with
    observability on and off: ``{obs_enabled: (harness, result)}``.
    Shared: read, never mutate."""
    runs = {}
    for obs_enabled in (True, False):
        harness = OpenLoopHarness(OpenLoopConfig(
            seed=0, obs_enabled=obs_enabled, **OVERLOAD_CONFIG))
        runs[obs_enabled] = (harness, harness.run())
    return runs


class CostLedger:
    """The cost ledger's rows, each run once per session, checked field
    by field against ``COSTS_golden.json``."""

    def __init__(self):
        #: ``row(config, seed)``: :func:`repro.harness.costs.run_row`,
        #: memoized.  Shared: read, never mutate.
        self.row = functools.lru_cache(maxsize=None)(run_row)

    def assert_matches(self, config, seed, *fields):
        row = self.row(config, seed)
        failures = golden.check(GOLDEN_PATH, {
            (f"{config}/{seed}", field): row[field] for field in fields})
        assert not failures, "\n".join(failures) + (
            "\nif the behaviour change is intentional, re-run `python -m "
            "repro costs --update-golden` and say why in CHANGES.md")


@pytest.fixture(scope="session")
def cost_ledger():
    return CostLedger()
