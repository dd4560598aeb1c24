"""Explicit BEGIN / COMMIT / ROLLBACK transactions on sessions."""

import pytest

from repro.errors import (SchemaError, TransactionRetryError,
                          UniqueViolationError)
from repro.kv.commands import TxnStatus

from .sql_util import connect, movr_engine


class TestExplicitTransactions:
    def test_begin_commit_applies_writes(self):
        engine, session = movr_engine()
        session.execute("BEGIN")
        session.execute("INSERT INTO users (id, email, name) "
                        "VALUES (1, 'a@x', 'A')")
        session.execute("UPDATE users SET name = 'AA' WHERE id = 1")
        session.execute("COMMIT")
        assert session.execute("SELECT name FROM users WHERE id = 1") == \
            [{"name": "AA"}]

    def test_rollback_discards_writes(self):
        engine, session = movr_engine()
        session.execute("BEGIN")
        session.execute("INSERT INTO users (id, email, name) "
                        "VALUES (2, 'b@x', 'B')")
        session.execute("ROLLBACK")
        assert session.execute("SELECT * FROM users WHERE id = 2") == []

    def test_uncommitted_writes_invisible_to_others(self):
        engine, session = movr_engine()
        other = connect(engine, "us-east1", index=1)
        session.execute("BEGIN")
        session.execute("INSERT INTO users (id, email, name) "
                        "VALUES (3, 'c@x', 'C')")
        # Reads-own-writes inside the transaction...
        assert session.execute("SELECT name FROM users WHERE id = 3") == \
            [{"name": "C"}]
        session.execute("ROLLBACK")
        # ...and nothing escaped.
        assert other.execute("SELECT * FROM users WHERE id = 3") == []

    def test_failed_rollback_does_not_hide_the_statements_error(self):
        """The anchor range is cut off when a statement fails: the
        rollback cannot reach it either, and must not replace the
        constraint violation the client is owed."""
        engine, session = movr_engine()
        session.execute("INSERT INTO promo_codes (code, description) "
                        "VALUES ('X', 'taken')")
        session.execute("BEGIN")
        session.execute("INSERT INTO users (id, email, name, crdb_region) "
                        "VALUES (4, 'd@x', 'D', 'europe-west2')")
        txn = session._open_txn
        assert txn.anchor.leaseholder_node.locality.region == "europe-west2"
        engine.cluster.network.faults.cut_link(
            "us-east1", "europe-west2", bidirectional=True)
        with pytest.raises(UniqueViolationError):
            session.execute("INSERT INTO promo_codes (code, description) "
                            "VALUES ('X', 'again')")
        assert session._open_txn is None
        assert txn.status == TxnStatus.ABORTED

    def test_commit_without_begin(self):
        engine, session = movr_engine()
        with pytest.raises(SchemaError, match="no transaction"):
            session.execute("COMMIT")

    def test_nested_begin_rejected(self):
        engine, session = movr_engine()
        session.execute("BEGIN")
        with pytest.raises(SchemaError, match="already open"):
            session.execute("BEGIN")
        session.execute("ROLLBACK")

    def test_stale_read_rejected_inside_txn(self):
        engine, session = movr_engine()
        session.execute("BEGIN")
        with pytest.raises(SchemaError):
            session.execute(
                "SELECT * FROM users AS OF SYSTEM TIME '-1s' WHERE id = 1")
        session.execute("ROLLBACK")

    def test_script_with_explicit_txn(self):
        engine, session = movr_engine()
        session.execute(
            "BEGIN; "
            "INSERT INTO users (id, email, name) VALUES (4, 'd@x', 'D'); "
            "COMMIT;")
        assert session.execute("SELECT name FROM users WHERE id = 4") == \
            [{"name": "D"}]

    def test_serialization_failure_surfaces_to_client(self):
        """A refresh failure inside an explicit transaction is returned
        to the client (like SQLSTATE 40001), not silently retried."""
        engine, session = movr_engine()
        session.execute("INSERT INTO users (id, email, name) "
                        "VALUES (5, 'e@x', 'v0')")
        other = connect(engine, "us-east1", index=1)

        session.execute("BEGIN")
        # Pin a read.
        session.execute("SELECT name FROM users WHERE id = 5")
        # A concurrent autocommit write invalidates the read window.
        other.execute("UPDATE users SET name = 'v1' WHERE id = 5")
        # Writing now bumps the txn above its read; COMMIT must fail.
        with pytest.raises(TransactionRetryError):
            session.execute(
                "UPDATE users SET name = 'mine' WHERE id = 5; COMMIT;")
        # The transaction is gone; the session is usable again.
        assert session.execute("SELECT name FROM users WHERE id = 5") == \
            [{"name": "v1"}]
