"""The verify scenario table: what the registry derives from it, how a
name is looked up, which backend a row runs on, what a row's audit
convicts, and — tier-2, one case per ablation row and seed — that every
ablation is convicted.

Adding an ablation is one :data:`repro.verify.SCENARIOS` row plus one
:data:`ABLATIONS` entry (its tier-2 marker and seed range); the shape
test fails until both exist.
"""

import dataclasses

import pytest

from repro.__main__ import main
from repro.chaos import faults
from repro.chaos.overload import SCENARIOS as OVERLOAD
from repro.harness.registry import REGISTRY
from repro.sim.clock import ClockModel
from repro.verify import SCENARIOS, VerifyHarness, run_verify

#: Every row with a verdict: its tier-2 marker and seed range.
ABLATIONS = {
    "clock-jump-nofence": (pytest.mark.clock, range(3)),
    "occ-novalidate": (pytest.mark.verify_occ, range(5)),
    "occ-unordered": (pytest.mark.verify_occ, range(5)),
    "one-phase-reapply": (pytest.mark.verify, range(5)),
    "cput-blind": (pytest.mark.verify, range(5)),
    "pipeline-unproven": (pytest.mark.verify, range(5)),
}

#: Small enough for tier-1, large enough to commit something.
SMALL = dict(clients_per_region=1, ops_per_client=2, stale_ops=1)

CHAOS_ROWS = ["region-blackout", "rolling-zones", "flaky-wan",
              "gray-follower", "asym-partition", "crash-restart",
              "partition-leaseholder"]
FAULT_ROWS = CHAOS_ROWS + ["split-merge", "global-nearest"]
CRDB_ROWS = ["split-under-fire", "overload"]
REPAIR_ROWS = ["kill-node-repair", "region-loss-repair"]
CLOCK_ROWS = ["clock-drift", "clock-jump", "clock-jump-fence",
              "clock-freeze-lease", "clock-jump-nofence"]
FORCED_ROWS = ["occ-novalidate", "occ-unordered", "one-phase-reapply",
               "cput-blind", "pipeline-unproven"]


class TestShape:
    def test_registry_derives_the_lists_it_held_before_the_table(self):
        exp = REGISTRY["verify"]
        assert list(exp.scenarios) == (
            ["none"] + FAULT_ROWS + CRDB_ROWS + REPAIR_ROWS + CLOCK_ROWS
            + FORCED_ROWS)
        assert list(exp.sweep(None)) == \
            FAULT_ROWS + CRDB_ROWS + REPAIR_ROWS + CLOCK_ROWS
        assert list(exp.sweep("epoch-occ")) == FAULT_ROWS
        assert list(exp.groups) == ["clock", "repair"]
        assert list(exp.groups["clock"]) == CLOCK_ROWS
        assert list(exp.groups["repair"]) == REPAIR_ROWS
        assert exp.fixed_protocol == frozenset(FORCED_ROWS)

    def test_every_row_has_a_doc_and_a_consistent_verdict(self):
        for name, row in SCENARIOS.items():
            assert row.doc.strip(), name
            assert REGISTRY["verify"].scenarios[name] == row.doc
            if row.verdict is not None:
                allowed, required = row.verdict
                assert required and required <= allowed, name
        assert [name for name, row in SCENARIOS.items()
                if row.verdict is not None] == list(ABLATIONS)

    def test_every_fault_builder_is_a_rows_nemesis(self):
        """repro.chaos builds schedules and nothing else: each builder is
        some row's ``faults`` (the protocols head-to-head reaches its
        partition through the partition-leaseholder row), and a row's
        schedule is a chaos builder or one of the harness's own."""
        builders = {getattr(faults, name) for name in faults.__all__
                    if name != "build_faults"}
        used = {getattr(row.faults, "func", row.faults)
                for row in SCENARIOS.values() if row.faults is not None}
        assert builders <= used, sorted(b.__name__ for b in builders - used)
        assert {fn.__module__ for fn in used} == {
            "repro.chaos.faults", "repro.verify.generator"}
        assert SCENARIOS["partition-leaseholder"].faults is \
            faults.partition_leaseholder_faults


class TestLookup:
    def test_none_is_a_row_and_behaves_the_same_through_both_entry_points(
            self):
        by_harness = VerifyHarness(0).run(scenario="none", **SMALL)
        by_name = run_verify("none", seed=0, **SMALL)
        by_default = run_verify(None, seed=0, **SMALL)
        assert by_harness.ok and by_harness.stats["txns_recorded"] > 0
        assert by_harness.history.dumps() == by_name.history.dumps() \
            == by_default.history.dumps()
        assert by_harness.to_json() == by_name.to_json()

    @pytest.mark.parametrize("run", [
        lambda name: run_verify(name),
        lambda name: VerifyHarness(0).run(scenario=name)],
        ids=["run_verify", "VerifyHarness.run"])
    def test_unknown_name_names_the_choices(self, run):
        with pytest.raises(KeyError, match="choose from .*'crash-restart'"):
            run("not-a-scenario")

    @pytest.mark.parametrize("name", sorted(set(OVERLOAD) - set(SCENARIOS)))
    def test_chaos_only_names_are_not_verify_scenarios(self, name):
        """The overload scenarios live in repro.chaos and run under the
        ``overload`` verb; the verify lookup refuses them."""
        with pytest.raises(KeyError, match="unknown verify scenario"):
            run_verify(name)


class TestAudit:
    """A row's audit judges what the history cannot show; any violation
    fails the run, whatever the checker says."""

    def test_a_fence_fails_the_in_contract_drift_row(self, monkeypatch):
        # Drift a hundred times the row's rate: far outside the
        # max-offset contract, so the monitor fences a victim.
        real = ClockModel.set_drift
        monkeypatch.setattr(ClockModel, "set_drift",
                            lambda self, node, rate:
                            real(self, node, rate * 100.0))
        result = run_verify("clock-drift", seed=0, **SMALL)
        assert result.stats["clock_fences"] >= 1
        assert result.audit and "unexpected self-fence" in result.audit[0]
        assert not result.ok

    @pytest.mark.parametrize("name, fenced, verdict", [
        ("clock-drift", [], []),
        ("clock-drift", [(300.0, 4, 900.0)],
         ["clock: unexpected self-fence of node(s) [4] under in-bounds "
          "clock faults"]),
        ("clock-jump-fence", [(300.0, 4, 900.0)], []),
        ("clock-jump-fence", [],
         ["clock: no node self-fenced despite a beyond-bound clock fault"]),
        ("clock-freeze-lease", [],
         ["clock: no node self-fenced despite a beyond-bound clock "
          "fault"])])
    def test_fence_expectations(self, name, fenced, verdict):
        harness = VerifyHarness(0)
        harness.enable_clock_monitor()
        harness.clock_monitor.fence_events.extend(fenced)
        assert SCENARIOS[name].audit(harness) == verdict

    def test_a_violation_fails_a_clean_run(self):
        result = run_verify("none", seed=0, **SMALL)
        assert result.ok and result.audit == []
        planted = dataclasses.replace(result, audit=["planted"])
        assert planted.report.ok and not planted.ok
        assert planted.to_json()["audit"] == ["planted"]
        assert "!! planted" in planted.render()


class TestForcedBackend:
    @pytest.mark.parametrize("name, protocol", [
        ("occ-novalidate", "crdb"),
        ("occ-unordered", "crdb"),
        ("one-phase-reapply", "epoch-occ"),
        ("cput-blind", "epoch-occ")])
    def test_run_verify_refuses_another_backend(self, name, protocol):
        with pytest.raises(ValueError, match="runs on"):
            run_verify(name, protocol=protocol)

    @pytest.mark.parametrize("name", FORCED_ROWS)
    def test_cli_refuses_a_protocol_override(self, name, capsys):
        assert main(["verify", "--scenario", name,
                     "--protocol", "epoch-occ"]) == 2
        assert "does not support --protocol" in capsys.readouterr().err


@pytest.mark.parametrize("name, seed", [
    pytest.param(name, seed, marks=mark, id=f"{name}-{seed}")
    for name, (mark, seeds) in ABLATIONS.items() for seed in seeds])
def test_ablation_is_convicted(name, seed):
    """With the row's defense off the checker must find what the defense
    prevents, and nothing worse — a sweep that stays clean with a guard
    off proves nothing about the guard."""
    result = run_verify(name, seed=seed)
    allowed, required = SCENARIOS[name].verdict
    found = {a.type for a in result.report.anomalies}
    assert found & required, (
        f"{name} seed={seed} produced none of {sorted(required)} "
        f"(found {sorted(found)})")
    assert result.ok, (
        f"{name} seed={seed} flagged anomaly types outside its verdict "
        f"{sorted(found - allowed)}:\n{result.report.render()}")
