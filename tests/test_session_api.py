"""Tests for the Session API surface: intervals, errors, SHOW statements,
IN-list queries, statement counting."""

import pytest

from repro.errors import SchemaError, SqlSyntaxError
from repro.sql.executor import Executor
from repro.sql.session import parse_interval_ms
from repro.txn.coordinator import TransactionCoordinator
from repro.txn.crdb import Transaction

from .sql_util import REGIONS3, connect, make_engine, movr_engine


class TestIntervalParsing:
    @pytest.mark.parametrize("text,expected", [
        ("-30s", -30_000.0),
        ("500ms", 500.0),
        ("2m", 120_000.0),
        ("1h", 3_600_000.0),
        ("1.5s", 1500.0),
    ])
    def test_valid(self, text, expected):
        assert parse_interval_ms(text) == expected

    @pytest.mark.parametrize("text", ["", "10", "s", "10 sec", "abc"])
    def test_invalid(self, text):
        with pytest.raises(SqlSyntaxError):
            parse_interval_ms(text)


class TestProgrammingErrorsSurface:
    """A bug in a statement is not a database outcome: it surfaces from
    the run.  Inside an explicit transaction and at its COMMIT nothing
    handles it as a failed statement (no rollback).  An auto-commit
    statement's body runs under ``TransactionCoordinator.run``, which
    rolls back whatever the body raises (an application's own exception
    is how it gives up) and raises it again."""

    @staticmethod
    def spy_rollbacks(monkeypatch):
        rollbacks = []
        rollback = TransactionCoordinator.rollback_best_effort

        def spying(self, txn):
            rollbacks.append(txn.txn_id)
            return rollback(self, txn)

        monkeypatch.setattr(TransactionCoordinator, "rollback_best_effort",
                            spying)
        return rollbacks

    @staticmethod
    def buggy_select(monkeypatch):
        def select(self, txn, stmt):
            raise TypeError("bug in a statement")
            yield  # pragma: no cover

        monkeypatch.setattr(Executor, "select", select)

    def test_an_auto_commit_statement(self, monkeypatch):
        _engine, session = movr_engine()
        rollbacks = self.spy_rollbacks(monkeypatch)
        self.buggy_select(monkeypatch)
        with pytest.raises(TypeError, match="bug in a statement"):
            session.execute("SELECT * FROM users WHERE id = 1")
        assert len(rollbacks) == 1

    def test_a_statement_in_an_explicit_transaction(self, monkeypatch):
        _engine, session = movr_engine()
        rollbacks = self.spy_rollbacks(monkeypatch)
        session.execute("BEGIN")
        self.buggy_select(monkeypatch)
        with pytest.raises(TypeError, match="bug in a statement"):
            session.execute("SELECT * FROM users WHERE id = 1")
        assert rollbacks == [] and session._open_txn is not None

    def test_a_commit(self, monkeypatch):
        _engine, session = movr_engine()
        rollbacks = self.spy_rollbacks(monkeypatch)
        session.execute("BEGIN")
        session.execute(
            "INSERT INTO users (id, email, name) VALUES (1, 'a@x', 'a')")

        def commit(self):
            raise TypeError("bug in a commit")
            yield  # pragma: no cover

        monkeypatch.setattr(Transaction, "commit", commit)
        with pytest.raises(TypeError, match="bug in a commit"):
            session.execute("COMMIT")
        assert rollbacks == []


class TestSessionErrors:
    def test_dml_without_database(self):
        engine = make_engine()
        session = engine.connect("us-east1")
        with pytest.raises(SchemaError, match="no database"):
            session.execute("SELECT * FROM t WHERE id = 1")

    def test_use_unknown_database(self):
        engine = make_engine()
        session = engine.connect("us-east1")
        with pytest.raises(SchemaError):
            session.execute("USE nope")

    def test_unknown_table(self):
        engine, session = movr_engine()
        with pytest.raises(SchemaError):
            session.execute("SELECT * FROM ghosts WHERE id = 1")

    def test_syntax_error(self):
        engine, session = movr_engine()
        with pytest.raises(SqlSyntaxError):
            session.execute("SELEC * FROM users")

    def test_unknown_column_in_insert(self):
        engine, session = movr_engine()
        with pytest.raises(SchemaError):
            session.execute("INSERT INTO users (nope) VALUES (1)")


class TestShowStatements:
    def test_show_regions_cluster(self):
        engine, session = movr_engine()
        assert session.execute("SHOW REGIONS") == REGIONS3

    def test_show_ranges_reports_placement(self):
        engine, session = movr_engine()
        rows = session.execute("SHOW RANGES FROM TABLE users")
        # 2 indexes (pk + email) x 3 partitions.
        assert len(rows) == 6
        for row in rows:
            assert row["lease_region"] == row["partition"]
            assert len(row["voters"]) == 3
            assert set(row["voters"]) == {row["partition"]}

    def test_show_ranges_global_table(self):
        engine, session = movr_engine()
        rows = session.execute("SHOW RANGES FROM TABLE promo_codes")
        assert len(rows) == 1
        assert rows[0]["lease_region"] == "us-east1"
        assert len(rows[0]["non_voters"]) == 2

    def test_show_zone_configuration_fields(self):
        engine, session = movr_engine()
        rows = session.execute("SHOW ZONE CONFIGURATION FOR TABLE users")
        assert len(rows) == 3
        for row in rows:
            assert row["num_voters"] == 3
            assert row["lease_preferences"] == [row["partition"]]

    def test_show_zone_configuration_region_survival(self):
        engine, session = movr_engine()
        session.execute("ALTER DATABASE movr SURVIVE REGION FAILURE")
        rows = session.execute("SHOW ZONE CONFIGURATION FOR TABLE users")
        for row in rows:
            assert row["num_voters"] == 5
            assert row["voter_constraints"][row["partition"]] == 2


class TestInListQueries:
    def test_in_list_returns_all_matches(self):
        engine, session = movr_engine()
        session.execute("INSERT INTO users (id, email, name) VALUES "
                        "(1, 'a@x', 'A'), (2, 'b@x', 'B'), (3, 'c@x', 'C')")
        rows = session.execute(
            "SELECT name FROM users WHERE id IN (1, 3, 404)")
        assert sorted(r["name"] for r in rows) == ["A", "C"]

    def test_in_list_local_latency_for_local_rows(self):
        engine, session = movr_engine()
        session.execute("INSERT INTO users (id, email, name) VALUES "
                        "(1, 'a@x', 'A'), (2, 'b@x', 'B')")
        sim = engine.cluster.sim
        start = sim.now
        session.execute("SELECT name FROM users WHERE id IN (1, 2)")
        assert sim.now - start < 10.0

    def test_in_list_on_unique_column(self):
        engine, session = movr_engine()
        session.execute("INSERT INTO users (id, email, name) VALUES "
                        "(1, 'a@x', 'A'), (2, 'b@x', 'B')")
        rows = session.execute(
            "SELECT id FROM users WHERE email IN ('a@x', 'b@x')")
        assert sorted(r["id"] for r in rows) == [1, 2]

    def test_in_list_explain_shows_multi_search(self):
        engine, session = movr_engine()
        lines = session.execute(
            "EXPLAIN SELECT * FROM users WHERE id IN (1, 2, 3)")
        assert any("3 keys" in line for line in lines)

    def test_in_list_on_non_unique_column_scans(self):
        engine, session = movr_engine()
        lines = session.execute(
            "EXPLAIN SELECT * FROM users WHERE name IN ('A', 'B')")
        assert any("full-scan" in line for line in lines)


class TestStatementCounters:
    def test_ddl_vs_dml_counting(self):
        engine, session = movr_engine()
        ddl_before = session.ddl_statement_count
        dml_before = session.dml_statement_count
        session.execute("CREATE TABLE x (id int PRIMARY KEY)")
        session.execute("INSERT INTO x (id) VALUES (1)")
        session.execute("SELECT * FROM x WHERE id = 1")
        assert session.ddl_statement_count == ddl_before + 1
        assert session.dml_statement_count == dml_before + 2

    def test_multi_statement_script_result_is_last(self):
        engine, session = movr_engine()
        result = session.execute(
            "INSERT INTO users (id, email, name) VALUES (7, 'g@x', 'G');"
            "SELECT name FROM users WHERE id = 7;")
        assert result == [{"name": "G"}]


class TestScans:
    def test_full_scan_without_where(self):
        engine, session = movr_engine()
        session.execute("INSERT INTO users (id, email, name) VALUES "
                        "(1, 'a@x', 'A'), (2, 'b@x', 'B')")
        rows = session.execute("SELECT * FROM users")
        assert len(rows) == 2

    def test_full_scan_with_filter(self):
        engine, session = movr_engine()
        session.execute("INSERT INTO users (id, email, name) VALUES "
                        "(1, 'a@x', 'A'), (2, 'b@x', 'A'), (3, 'c@x', 'B')")
        rows = session.execute("SELECT id FROM users WHERE name = 'A'")
        assert sorted(r["id"] for r in rows) == [1, 2]

    def test_scan_sees_rows_from_all_partitions(self):
        engine, session = movr_engine()
        session.execute("INSERT INTO users (id, email, name) "
                        "VALUES (1, 'a@x', 'A')")
        west = connect(engine, "us-west1")
        west.execute("INSERT INTO users (id, email, name) "
                     "VALUES (2, 'b@x', 'B')")
        rows = session.execute("SELECT id FROM users")
        assert sorted(r["id"] for r in rows) == [1, 2]
