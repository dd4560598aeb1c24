"""The verify scenario table: what the registry derives from it, how a
name is looked up, which backend a row runs on, what a row's audit
convicts, how an ablation names its off-switch, and — tier-2, one case
per ablation row and seed — that every ablation is convicted.

Adding an ablation is one class attribute, default True, on the
mechanism's owner plus one :data:`repro.verify.SCENARIOS` row whose
``setup`` is an :class:`~repro.verify.Ablation` naming it and whose
``verdict`` says what the checker must convict.  Nothing here lists the
ablations: :data:`ABLATIONS` derives each verdict row's tier-2 marker
and seeds from the row, and the switch tests read the rows.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
from repro.__main__ import main
from repro.chaos import faults
from repro.harness.registry import REGISTRY
from repro.sim.clock import ClockModel
from repro.verify import SCENARIOS, Ablation, VerifyHarness, run_verify


def _tier2(row):
    """A verdict row's tier-2 marker and seeds: a clock-sweep row runs
    under ``clock`` on 3 seeds, an epoch-OCC row under ``verify_occ``
    and any other under ``verify``, on 5."""
    if "clock" in row.sweeps:
        return pytest.mark.clock, range(3)
    if row.protocol == "epoch-occ":
        return pytest.mark.verify_occ, range(5)
    return pytest.mark.verify, range(5)


#: Every row with a verdict: its tier-2 marker and seed range.
ABLATIONS = {name: _tier2(row) for name, row in SCENARIOS.items()
             if row.verdict is not None}

#: Every ablation row's off-switch, by row name.
SWITCHES = {name: row.setup for name, row in SCENARIOS.items()
            if isinstance(row.setup, Ablation)}

#: Small enough for tier-1, large enough to commit something.
SMALL = dict(clients_per_region=1, ops_per_client=2, stale_ops=1)

CHAOS_ROWS = ["region-blackout", "rolling-zones", "flaky-wan",
              "gray-follower", "asym-partition", "crash-restart",
              "partition-leaseholder"]
FAULT_ROWS = CHAOS_ROWS + ["split-merge", "global-nearest"]
CRDB_ROWS = ["split-under-fire", "overload"]
REPAIR_ROWS = ["kill-node-repair", "region-loss-repair"]
#: The clock rows that are not ablations; the clock sweep's ablations
#: follow them.
CLOCK_ROWS = ["clock-drift", "clock-jump", "clock-jump-fence",
              "clock-freeze-lease"]
CLOCK_ABLATIONS = [name for name in ABLATIONS
                   if "clock" in SCENARIOS[name].sweeps]
#: The rows that force a backend: every ablation of one pipeline's
#: mechanism.
FORCED_ROWS = [name for name in ABLATIONS
               if SCENARIOS[name].protocol is not None]
OTHER_BACKEND = {"crdb": "epoch-occ", "epoch-occ": "crdb"}


class TestShape:
    def test_registry_derives_the_lists_it_held_before_the_table(self):
        exp = REGISTRY["verify"]
        assert list(exp.scenarios) == (
            ["none"] + FAULT_ROWS + CRDB_ROWS + REPAIR_ROWS + CLOCK_ROWS
            + list(ABLATIONS))
        assert list(exp.sweep(None)) == \
            FAULT_ROWS + CRDB_ROWS + REPAIR_ROWS + CLOCK_ROWS \
            + CLOCK_ABLATIONS
        assert list(exp.sweep("epoch-occ")) == FAULT_ROWS
        assert list(exp.groups) == ["clock", "repair"]
        assert list(exp.groups["clock"]) == CLOCK_ROWS + CLOCK_ABLATIONS
        assert list(exp.groups["repair"]) == REPAIR_ROWS
        assert exp.fixed_protocol == frozenset(FORCED_ROWS)

    def test_every_row_has_a_doc_and_a_consistent_verdict(self):
        for name, row in SCENARIOS.items():
            assert row.doc.strip(), name
            assert REGISTRY["verify"].scenarios[name] == row.doc
            if row.verdict is not None:
                allowed, required = row.verdict
                assert required and required <= allowed, name

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


class TestAblations:
    """An ablation's off-switch is data: a row's :class:`Ablation` names
    its owner and attribute, and nothing outside the verifier switches a
    mechanism off."""

    def test_every_ablation_has_a_verdict_and_every_verdict_an_ablation(
            self):
        assert SWITCHES
        assert list(SWITCHES) == list(ABLATIONS)

    @pytest.mark.parametrize("name", list(SWITCHES))
    def test_each_switch_is_a_class_attribute_on_by_default(self, name):
        switch = SWITCHES[name]
        harness = VerifyHarness(
            0, protocol=SCENARIOS[name].protocol or "crdb")
        harness._init_keys()  # as a run does first: epoch-OCC's service
        if switch.before is not None:
            switch.before(harness)
        owners = switch.owners(harness)
        assert owners, name
        for owner in owners:
            assert getattr(type(owner), switch.attribute) is True, (
                type(owner).__name__, switch.attribute)
            assert switch.attribute not in vars(owner), name
            assert getattr(owner, switch.attribute) is True

    def test_no_switch_is_turned_off_outside_the_verifier(self):
        """The tier-1 form of CI's "One verify scenario table" gate: no
        ``<switch> = False`` (or ``setattr`` of one to False) in
        ``src/repro`` outside ``verify/``."""
        attributes = {switch.attribute for switch in SWITCHES.values()}
        package = Path(repro.__file__).parent
        found = []
        for path in sorted(package.rglob("*.py")):
            if package / "verify" in path.parents:
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Assign):
                    names = [getattr(t, "attr", getattr(t, "id", None))
                             for t in node.targets]
                    value = node.value
                elif (isinstance(node, ast.Call)
                      and getattr(node.func, "id", None) == "setattr"
                      and len(node.args) == 3):
                    names = [getattr(node.args[1], "value", None)]
                    value = node.args[2]
                else:
                    continue
                if (attributes.intersection(names)
                        and isinstance(value, ast.Constant)
                        and value.value is False):
                    found.append(f"{path.relative_to(package)}:"
                                 f"{node.lineno}")
        assert found == []

    def test_a_rows_setup_switches_its_mechanism_off(self):
        fresh, ablated = VerifyHarness(0), VerifyHarness(0)
        SCENARIOS["cput-blind"].setup(ablated)
        assert [rng.check_condition for rng in fresh.ranges.values()] \
            == [True] * 3
        assert [rng.check_condition for rng in ablated.ranges.values()] \
            == [False] * 3


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
        (name, OTHER_BACKEND[SCENARIOS[name].protocol])
        for name in FORCED_ROWS])
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
