"""The verify scenario table: what the registry derives from it, how a
name is looked up, which backend a row runs on, and — tier-2, one case
per ablation row and seed — that every ablation is convicted.

Adding an ablation is one :data:`repro.verify.SCENARIOS` row plus one
:data:`ABLATIONS` entry (its tier-2 marker and seed range); the shape
test fails until both exist.
"""

import pytest

from repro.__main__ import main
from repro.chaos import SCENARIOS as CHAOS
from repro.harness.registry import REGISTRY
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
              "gray-follower", "asym-partition", "crash-restart"]
FAULT_ROWS = CHAOS_ROWS + ["split-merge", "global-nearest"]
CLOCK_ROWS = ["clock-drift", "clock-jump", "clock-jump-nofence"]
FORCED_ROWS = ["occ-novalidate", "occ-unordered", "one-phase-reapply",
               "cput-blind", "pipeline-unproven"]


class TestShape:
    def test_registry_derives_the_lists_it_held_before_the_table(self):
        exp = REGISTRY["verify"]
        assert list(exp.scenarios) == (
            ["none"] + FAULT_ROWS + ["overload"] + CLOCK_ROWS + FORCED_ROWS)
        assert list(exp.sweep(None)) == FAULT_ROWS + ["overload"] + CLOCK_ROWS
        assert list(exp.sweep("epoch-occ")) == FAULT_ROWS
        assert list(exp.groups) == ["clock"]
        assert list(exp.groups["clock"]) == CLOCK_ROWS
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

    def test_chaos_derived_rows_reuse_the_chaos_schedule_and_doc(self):
        for name in CHAOS_ROWS + ["clock-drift"]:
            assert SCENARIOS[name].doc == CHAOS[name].doc


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

    @pytest.mark.parametrize("name", sorted(set(CHAOS) - set(SCENARIOS)))
    def test_chaos_only_names_are_not_verify_scenarios(self, name):
        with pytest.raises(KeyError, match="unknown verify scenario"):
            run_verify(name)


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
