"""Tests for locality-aware planning (§4): LOS and uniqueness rules."""

import pytest

from repro.optimizer import (
    FanoutPointRead,
    FullScan,
    LocalityOptimizedRead,
    PartitionPointRead,
    Planner,
    equality_bindings,
)
from repro.sql import DEFAULT_PARTITION, parse_one
from repro.sql.eval import EvalEnv

from .sql_util import REGIONS5, connect, make_engine, movr_engine


def planner_for(engine, table_name, region="us-east1", db="movr"):
    table = engine.catalog.database(db).table(table_name)
    return Planner(gateway_region=region,
                   env=EvalEnv(gateway_region=region)), table


def where_of(sql):
    return parse_one(sql).where


def lookup_of(sql):
    """What the planner takes of a statement: its pre-analysed form and
    its literal values."""
    stmt = parse_one(sql)
    return stmt.compiled, stmt.params


class TestEqualityBindings:
    def test_simple(self):
        where = where_of("SELECT * FROM t WHERE id = 5")
        assert equality_bindings(where) == {"id": 5}

    def test_and_chain(self):
        where = where_of("SELECT * FROM t WHERE a = 1 AND b = 'x'")
        assert equality_bindings(where) == {"a": 1, "b": "x"}

    def test_reversed_operands(self):
        where = where_of("SELECT * FROM t WHERE 5 = id")
        assert equality_bindings(where) == {"id": 5}

    def test_inequality_ignored(self):
        where = where_of("SELECT * FROM t WHERE a > 1")
        assert equality_bindings(where) == {}

    def test_none_where(self):
        assert equality_bindings(None) == {}


class TestPointQueryPlans:
    def test_pk_bound_without_region_uses_los(self):
        engine, _session = movr_engine()
        planner, table = planner_for(engine, "users")
        plan = planner.plan_point_query(table, *lookup_of(
            "SELECT * FROM users WHERE id = 1"))
        assert isinstance(plan, LocalityOptimizedRead)
        assert plan.local_partition == "us-east1"
        assert sorted(plan.remote_partitions) == \
            ["europe-west2", "us-west1"]

    def test_unique_email_uses_los(self):
        engine, _session = movr_engine()
        planner, table = planner_for(engine, "users")
        plan = planner.plan_point_query(table, *lookup_of(
            "SELECT * FROM users WHERE email = 'a@x'"))
        assert isinstance(plan, LocalityOptimizedRead)

    def test_region_bound_single_partition(self):
        engine, _session = movr_engine()
        planner, table = planner_for(engine, "users")
        plan = planner.plan_point_query(table, *lookup_of(
            "SELECT * FROM users WHERE id = 1 AND "
            "crdb_region = 'us-west1'"))
        assert isinstance(plan, PartitionPointRead)
        assert plan.partition == "us-west1"

    def test_los_disabled_gives_fanout(self):
        engine, _session = movr_engine()
        planner, table = planner_for(engine, "users")
        table.locality_optimized_search = False
        plan = planner.plan_point_query(table, *lookup_of(
            "SELECT * FROM users WHERE id = 1"))
        assert isinstance(plan, FanoutPointRead)
        assert len(plan.partitions) == 3

    def test_unpartitioned_table_single_partition(self):
        engine, _session = movr_engine()
        planner, table = planner_for(engine, "promo_codes")
        plan = planner.plan_point_query(table, *lookup_of(
            "SELECT * FROM promo_codes WHERE code = 'X'"))
        assert isinstance(plan, PartitionPointRead)
        assert plan.partition == DEFAULT_PARTITION

    def test_unbound_key_full_scan(self):
        engine, _session = movr_engine()
        planner, table = planner_for(engine, "users")
        plan = planner.plan_point_query(table, *lookup_of(
            "SELECT * FROM users WHERE name = 'A'"))
        assert isinstance(plan, FullScan)

    def test_computed_region_inferred_from_determinants(self):
        engine, session = movr_engine()
        session.execute(
            "CREATE TABLE accounts (id int PRIMARY KEY, state string, "
            "crdb_region crdb_internal_region AS "
            "(CASE WHEN state = 'CA' THEN 'us-west1' ELSE 'us-east1' END) "
            "STORED) LOCALITY REGIONAL BY ROW")
        planner, table = planner_for(engine, "accounts")
        plan = planner.plan_point_query(table, *lookup_of(
            "SELECT * FROM accounts WHERE id = 1 AND state = 'CA'"))
        assert isinstance(plan, PartitionPointRead)
        assert plan.partition == "us-west1"

    def test_gateway_outside_db_regions_fans_out(self):
        """A gateway whose region is not a partition cannot do LOS."""
        engine, _session = movr_engine()
        planner, table = planner_for(engine, "users", region="mars")
        plan = planner.plan_point_query(table, *lookup_of(
            "SELECT * FROM users WHERE id = 1"))
        assert isinstance(plan, FanoutPointRead)

    def test_explain_strings(self):
        engine, _session = movr_engine()
        planner, table = planner_for(engine, "users")
        plan = planner.plan_point_query(table, *lookup_of(
            "SELECT * FROM users WHERE id = 1"))
        assert "locality-optimized-search" in plan.explain()


class TestUniquenessCheckPlans:
    def test_default_rbr_needs_global_checks(self):
        """No help from the user: pk and email check every region."""
        engine, _session = movr_engine()
        planner, table = planner_for(engine, "users")
        row = {"id": 1, "email": "a@x", "name": "A",
               "crdb_region": "us-east1"}
        checks = planner.plan_uniqueness_checks(
            table, row)
        by_reason = {c.index.name: c for c in checks}
        assert all(len(c.partitions) == 3 for c in checks)
        assert len(checks) == 2  # pk + email

    def test_rule1_generated_uuid_skipped(self):
        engine, session = movr_engine()
        session.execute(
            "CREATE TABLE sessions (id uuid PRIMARY KEY "
            "DEFAULT gen_random_uuid(), v string) "
            "LOCALITY REGIONAL BY ROW")
        planner, table = planner_for(engine, "sessions")
        row = {"id": "u-u-i-d", "v": "x", "crdb_region": "us-east1"}
        checks = planner.plan_uniqueness_checks(
            table, row, generated_columns=frozenset({"id"}))
        assert checks == []

    def test_rule1_explicit_value_still_checked(self):
        """A user-provided value for the UUID column is still checked."""
        engine, session = movr_engine()
        session.execute(
            "CREATE TABLE sessions2 (id uuid PRIMARY KEY "
            "DEFAULT gen_random_uuid(), v string) "
            "LOCALITY REGIONAL BY ROW")
        planner, table = planner_for(engine, "sessions2")
        row = {"id": "explicit", "v": "x", "crdb_region": "us-east1"}
        checks = planner.plan_uniqueness_checks(
            table, row)
        assert len(checks) == 1
        assert len(checks[0].partitions) == 3

    def test_rule2_region_in_constraint_local_only(self):
        engine, session = movr_engine()
        session.execute(
            "CREATE TABLE percity (id int PRIMARY KEY, code string, "
            "UNIQUE (crdb_region, code)) LOCALITY REGIONAL BY ROW")
        planner, table = planner_for(engine, "percity")
        row = {"id": 1, "code": "c", "crdb_region": "us-west1"}
        checks = planner.plan_uniqueness_checks(
            table, row)
        code_checks = [c for c in checks if "code" in c.constraint]
        assert len(code_checks) == 1
        assert code_checks[0].partitions == ["us-west1"]

    def test_rule3_computed_region_local_only(self):
        engine, session = movr_engine()
        session.execute(
            "CREATE TABLE accounts (id int PRIMARY KEY, "
            "crdb_region crdb_internal_region AS "
            "(CASE WHEN mod(id, 2) = 0 THEN 'us-west1' ELSE 'us-east1' END)"
            " STORED) LOCALITY REGIONAL BY ROW")
        planner, table = planner_for(engine, "accounts")
        row = {"id": 2, "crdb_region": "us-west1"}
        checks = planner.plan_uniqueness_checks(
            table, row)
        assert len(checks) == 1
        assert checks[0].partitions == ["us-west1"]
        assert checks[0].reason == "region computed from key"

    def test_update_checks_only_changed_constraints(self):
        engine, _session = movr_engine()
        planner, table = planner_for(engine, "users")
        row = {"id": 1, "email": "a@x", "name": "B",
               "crdb_region": "us-east1"}
        checks = planner.plan_uniqueness_checks(
            table, row, changed_columns=frozenset({"name"}))
        assert checks == []
        checks = planner.plan_uniqueness_checks(
            table, row, changed_columns=frozenset({"email"}))
        assert len(checks) == 1
        assert checks[0].constraint == ("email",)

    def test_suppressed_checks(self):
        engine, _session = movr_engine()
        planner, table = planner_for(engine, "users")
        table.suppress_uniqueness_checks = True
        row = {"id": 1, "email": "a@x", "name": "A",
               "crdb_region": "us-east1"}
        assert planner.plan_uniqueness_checks(
            table, row) == []

    def test_non_partitioned_table_single_check(self):
        engine, _session = movr_engine()
        planner, table = planner_for(engine, "promo_codes")
        row = {"code": "X", "description": "d"}
        checks = planner.plan_uniqueness_checks(
            table, row)
        assert len(checks) == 1
        assert checks[0].partitions == [DEFAULT_PARTITION]


def run_and_spy(session, sql):
    """Execute ``sql`` on the session's own long-lived executor; returns
    (result, the read plans it executed)."""
    executor = session._executor()
    plans = []
    lookup = executor._lookup_rows

    def spy(txn, table, plan, *args, **kwargs):
        plans.append(plan)
        return lookup(txn, table, plan, *args, **kwargs)

    executor._lookup_rows = spy
    try:
        return session.execute(sql), plans
    finally:
        del executor._lookup_rows


class TestSchemaChangeBetweenExecutions:
    """One statement shape, executed before and after a schema change by
    one session (same cached shape, same executor and planner): the
    second execution's plan follows the catalog as it is then."""

    def test_alter_table_set_locality(self):
        engine, session = movr_engine()
        session.execute("INSERT INTO users (id, email, name) "
                        "VALUES (1, 'a@x', 'A'), (2, 'b@x', 'B')")
        rows, (plan,) = run_and_spy(
            session, "SELECT name FROM users WHERE id = 1")
        assert rows == [{"name": "A"}]
        assert isinstance(plan, LocalityOptimizedRead)
        session.execute("ALTER TABLE users SET LOCALITY GLOBAL")
        rows, (plan,) = run_and_spy(
            session, "SELECT name FROM users WHERE id = 2")
        assert rows == [{"name": "B"}]
        assert isinstance(plan, PartitionPointRead)
        assert plan.partition == DEFAULT_PARTITION

    def test_create_index(self):
        engine, session = movr_engine()
        session.execute("INSERT INTO users (id, email, name) "
                        "VALUES (1, 'a@x', 'A'), (2, 'b@x', 'B')")
        rows, (plan,) = run_and_spy(
            session, "SELECT email FROM users WHERE name = 'A'")
        assert rows == [{"email": "a@x"}]
        assert isinstance(plan, FullScan)
        session.execute("CREATE UNIQUE INDEX by_name ON users (name)")
        rows, (plan,) = run_and_spy(
            session, "SELECT email FROM users WHERE name = 'B'")
        assert rows == [{"email": "b@x"}]
        assert isinstance(plan, LocalityOptimizedRead)
        assert plan.index.name == "users@by_name" and plan.key == ("B",)

    def test_alter_table_add_column(self):
        engine, session = movr_engine()
        session.execute("INSERT INTO users (id, email, name) "
                        "VALUES (1, 'a@x', 'A')")
        assert session.execute("SELECT * FROM users WHERE id = 1") == \
            [{"id": 1, "email": "a@x", "name": "A"}]
        session.execute("ALTER TABLE users ADD COLUMN age int DEFAULT 7")
        session.execute("INSERT INTO users (id, email, name) "
                        "VALUES (2, 'b@x', 'B')")
        assert session.execute("SELECT * FROM users WHERE id = 2") == \
            [{"id": 2, "email": "b@x", "name": "B", "age": 7}]
        assert session.execute("UPDATE users SET age = 8 WHERE id = 2") == 1
        assert session.execute("SELECT age FROM users WHERE id = 2") == \
            [{"age": 8}]

    def test_alter_database_add_region(self):
        engine, session = movr_engine(regions=REGIONS5[:4])
        session.execute("INSERT INTO users (id, email, name) "
                        "VALUES (1, 'a@x', 'A')")
        session.execute('ALTER DATABASE movr DROP REGION "asia-northeast1"')
        _rows, (plan,) = run_and_spy(
            session, "SELECT name FROM users WHERE id = 1")
        assert sorted(plan.remote_partitions) == \
            ["europe-west2", "us-west1"]
        session.execute('ALTER DATABASE movr ADD REGION "asia-northeast1"')
        rows, (plan,) = run_and_spy(
            session, "SELECT name FROM users WHERE id = 1")
        assert rows == [{"name": "A"}]
        assert sorted(plan.remote_partitions) == \
            ["asia-northeast1", "europe-west2", "us-west1"]
        # The new region takes rows: same INSERT shape, new partition.
        asia = connect(engine, "asia-northeast1")
        asia.execute("INSERT INTO users (id, email, name) "
                     "VALUES (2, 'b@x', 'B')")
        assert asia.execute("SELECT crdb_region FROM users WHERE id = 2") \
            == [{"crdb_region": "asia-northeast1"}]

    def test_los_toggle(self):
        engine, session = movr_engine()
        session.execute("INSERT INTO users (id, email, name) "
                        "VALUES (1, 'a@x', 'A')")
        _rows, (plan,) = run_and_spy(
            session, "SELECT name FROM users WHERE id = 1")
        assert isinstance(plan, LocalityOptimizedRead)
        table = engine.catalog.database("movr").table("users")
        table.locality_optimized_search = False
        rows, (plan,) = run_and_spy(
            session, "SELECT name FROM users WHERE id = 1")
        assert rows == [{"name": "A"}]
        assert isinstance(plan, FanoutPointRead)
        table.locality_optimized_search = True
        _rows, (plan,) = run_and_spy(
            session, "SELECT name FROM users WHERE id = 1")
        assert isinstance(plan, LocalityOptimizedRead)

    def test_use_other_database(self):
        """``USE`` swaps the session's executor: the same text runs
        against the other database's table."""
        engine, session = movr_engine()
        session.execute("INSERT INTO promo_codes (code, description) "
                        "VALUES ('X', 'movr')")
        session.execute('CREATE DATABASE other PRIMARY REGION "us-east1"')
        session.execute("CREATE TABLE promo_codes (code string PRIMARY KEY, "
                        "description string)")
        session.execute("INSERT INTO promo_codes (code, description) "
                        "VALUES ('X', 'other')")
        text = "SELECT description FROM promo_codes WHERE code = 'X'"
        assert session.execute(text) == [{"description": "other"}]
        session.execute("USE movr")
        assert session.execute(text) == [{"description": "movr"}]
