"""Tests for the CLI entry point and catalog primitives."""

import json
import pathlib
import re
import shlex

import pytest

from repro.__main__ import build_parser, main
from repro.errors import SchemaError
from repro.harness.registry import REGISTRY, summary
from repro.sql.catalog import (
    Catalog,
    Column,
    Database,
    RegionEnum,
    Table,
    TableLocality,
)

PAPER = [name for name, exp in REGISTRY.items() if exp.style == "paper"]
REPO = pathlib.Path(__file__).resolve().parent.parent


class TestCLI:
    def test_list_prints_every_experiment_and_scenario_with_its_doc(
            self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for exp in REGISTRY.values():
            assert f"{exp.name:<10s} {summary(exp.doc)}" in lines
            for scenario, doc in exp.scenarios.items():
                assert f"    {scenario:<22s} {summary(doc)}" in lines
        assert summary("first\n  line.\n\nsecond paragraph") == "first line."

    @pytest.mark.parametrize("verb", ["list", "all"] + list(REGISTRY))
    def test_every_verb_has_help(self, verb, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([verb, "--help"])
        assert exit_info.value.code == 0
        assert f"python -m repro {verb}" in capsys.readouterr().out

    def test_usage_docstring_names_every_verb(self):
        import repro.__main__ as cli
        for verb in ["list", "all"] + list(REGISTRY):
            assert re.search(rf"\b{verb}\b", cli.__doc__), verb

    def test_table1_runs(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "274.0" in out

    def test_quick_fig4b(self, capsys):
        assert main(["fig4b", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Fig 4b" in out
        assert "computed" in out

    @pytest.mark.parametrize("argv", [
        ["not-an-experiment"], ["bench"], [],
        ["repair", "--scenario", "kill-node-repair"],
        ["scale", "--update-baseline"],
        ["chaos", "crash-restart"]])
    def test_usage_errors_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["overload", "not-a-scenario"],
        ["verify", "--scenario", "not-a-scenario"],
        ["overload", "overload-global", "--protocol", "epoch-occ"],
        ["sweep", "--kinds", "rebalance"],
        ["sweep", "--kinds", "verify", "--scenarios", "not-a-scenario"]])
    def test_unknown_scenario_or_kind_exits_2(self, argv, capsys):
        assert main(argv) == 2
        assert capsys.readouterr().err

    def test_unknown_observed_scenario_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["metrics", "--scenario", "not-a-scenario"])
        assert exit_info.value.code == 2


def _ci_command_lines():
    """Every ``python -m repro ...`` command line in the CI workflow
    (continuation lines joined, matrix placeholders filled in)."""
    text = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    text = "\n".join(line for line in text.splitlines()
                     if not line.lstrip().startswith("#"))
    text = text.replace("\\\n", " ").replace("${{ matrix.protocol }}",
                                             "epoch-occ")
    return [shlex.split(match)
            for match in re.findall(r"python -m repro ([^\n|&;]+)", text)]


class TestCIWorkflow:
    def test_workflow_runs_the_cli(self):
        assert len(_ci_command_lines()) >= 10

    @pytest.mark.parametrize(
        "argv", _ci_command_lines(), ids=lambda argv: " ".join(argv))
    def test_every_ci_command_line_parses(self, argv):
        args = build_parser().parse_args(argv)
        assert args.verb in REGISTRY

    def test_retired_entry_points_are_gone_from_ci(self):
        text = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        assert "scripts/" not in text and "BENCH_results" not in text


class TestChaosCLI:
    """Fault scenarios through the CLI: every one is a verify row."""

    def test_list_scenarios(self, capsys):
        assert main(["verify", "--scenario", "list"]) == 0
        assert capsys.readouterr().out.split() == \
            list(REGISTRY["verify"].scenarios)
        assert main(["overload", "list"]) == 0
        assert capsys.readouterr().out.split() == \
            list(REGISTRY["overload"].scenarios)

    def test_clean_run_exits_zero(self, capsys):
        assert main(["verify", "--scenario", "crash-restart",
                     "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "verify: OK" in out and "audit: OK" in out

    def test_json_report_is_machine_readable(self, capsys):
        assert main(["verify", "--scenario", "kill-node-repair",
                     "--seed", "0", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        (run,) = report["runs"]
        assert run["scenario"] == "kill-node-repair"
        assert run["seed"] == 0
        assert run["report"]["anomalies"] == []
        assert run["audit"] == []
        assert run["stats"]["repair_actions"] >= 1
        assert run["stats"]["max_inflight_changes"] == 1
        assert isinstance(run["wall_s"], float)

    def test_seed_flags(self, capsys):
        """--seeds K>1 wins, then --seed N, then the verb's default."""
        assert main(["verify", "--scenario", "crash-restart",
                     "--seeds", "2", "--json"]) == 0
        runs = json.loads(capsys.readouterr().out)["runs"]
        assert [run["seed"] for run in runs] == [0, 1]
        assert main(["verify", "--scenario", "crash-restart",
                     "--seed", "3", "--json"]) == 0
        (run,) = json.loads(capsys.readouterr().out)["runs"]
        assert run["seed"] == 3


class TestRepairCLI:
    def test_repair_report(self, capsys):
        assert main(["verify", "--scenario", "repair", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        for name in ("kill-node-repair", "region-loss-repair"):
            assert f"verify scenario {name!r}" in out
        assert "liveness n" in out and "-> dead" in out
        assert "repair_replace_dead_voter=" in out
        assert "time_to_repair_ms=" in out
        assert "max_inflight_changes=1" in out
        assert "audit: OK" in out


class TestRegionEnum:
    def test_add_remove(self):
        enum = RegionEnum(["a", "b"])
        enum.add("c")
        assert enum.values() == ["a", "b", "c"]
        enum.remove("b")
        assert enum.values() == ["a", "c"]

    def test_duplicate_add_rejected(self):
        enum = RegionEnum(["a"])
        with pytest.raises(SchemaError):
            enum.add("a")

    def test_remove_missing_rejected(self):
        enum = RegionEnum(["a"])
        with pytest.raises(SchemaError):
            enum.remove("zz")

    def test_read_only_lifecycle(self):
        enum = RegionEnum(["a", "b"])
        enum.set_read_only("b")
        assert enum.is_read_only("b")
        with pytest.raises(SchemaError, match="READ ONLY"):
            enum.validate_writable("b")
        enum.set_read_only("b", False)
        enum.validate_writable("b")  # no raise

    def test_validate_unknown_region(self):
        enum = RegionEnum(["a"])
        with pytest.raises(SchemaError):
            enum.validate_writable("mars")

    def test_remove_clears_read_only(self):
        enum = RegionEnum(["a", "b"])
        enum.set_read_only("b")
        enum.remove("b")
        enum.add("b")
        assert not enum.is_read_only("b")


class TestCatalogStructures:
    def test_database_region_ordering(self):
        database = Database("d", primary_region="p", regions=["a", "p", "b"])
        # Primary first, duplicates collapsed, insertion order kept.
        assert database.regions == ["p", "a", "b"]

    def test_duplicate_table_rejected(self):
        database = Database("d")
        database.add_table(Table("t", database))
        with pytest.raises(SchemaError):
            database.add_table(Table("t", database))

    def test_unknown_table_raises(self):
        database = Database("d")
        with pytest.raises(SchemaError):
            database.table("ghost")

    def test_catalog_database_lookup(self):
        catalog = Catalog()
        catalog.add_database(Database("d"))
        assert catalog.database("d").name == "d"
        with pytest.raises(SchemaError):
            catalog.database("x")
        with pytest.raises(SchemaError):
            catalog.add_database(Database("d"))

    def test_table_columns(self):
        database = Database("d")
        table = Table("t", database)
        table.add_column(Column("a", "int"))
        table.add_column(Column("hidden", "int", visible=False))
        assert table.visible_columns() == ["a"]
        with pytest.raises(SchemaError):
            table.add_column(Column("a", "int"))
        with pytest.raises(SchemaError):
            table.column("zz")

    def test_locality_kinds(self):
        locality = TableLocality(TableLocality.GLOBAL)
        assert locality.is_global
        assert not locality.is_regional_by_row
        locality = TableLocality(TableLocality.REGIONAL_BY_ROW,
                                 column="crdb_region")
        assert locality.is_regional_by_row

    def test_home_region_rules(self):
        database = Database("d", primary_region="p", regions=["a"])
        table = Table("t", database)
        table.locality = TableLocality(TableLocality.GLOBAL)
        assert table.home_region() == "p"
        table.locality = TableLocality(TableLocality.REGIONAL_BY_TABLE,
                                       region="a")
        assert table.home_region() == "a"
        table.locality = TableLocality(TableLocality.REGIONAL_BY_ROW)
        assert table.home_region() is None
