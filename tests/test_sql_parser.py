"""Tests for the SQL lexer and parser."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SqlSyntaxError
from repro.sql import ast, parse, parse_one, tokenize
from repro.sql import parser as parser_module
from repro.sql.parser import _PARSE_CACHE, _Parser

from .sql_util import connect, movr_engine


class TestLexer:
    def test_basic_tokens(self):
        tokens = tokenize("SELECT * FROM t WHERE id = 5;")
        kinds = [t.kind for t in tokens]
        assert kinds == ["ident", "op", "ident", "ident", "ident", "ident",
                         "op", "number", "op", "eof"]

    def test_quoted_identifier(self):
        tokens = tokenize('"us-east1"')
        assert tokens[0].kind == "ident"
        assert tokens[0].text == "us-east1"

    def test_string_literal_with_escape(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].kind == "string"
        assert tokens[0].text == "it's"

    def test_comment_skipped(self):
        tokens = tokenize("SELECT 1 -- a comment\n")
        assert [t.kind for t in tokens] == ["ident", "number", "eof"]

    def test_garbage_rejected(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("SELECT @ FROM t")


class TestCreateDatabase:
    def test_paper_example(self):
        stmt = parse_one(
            'CREATE DATABASE movr PRIMARY REGION "us-east1" '
            'REGIONS "us-west1", "europe-west1"')
        assert stmt.name == "movr"
        assert stmt.primary_region == "us-east1"
        assert stmt.regions == ["us-west1", "europe-west1"]

    def test_no_regions(self):
        stmt = parse_one("CREATE DATABASE plain")
        assert stmt.primary_region is None
        assert stmt.regions == []


class TestAlterDatabase:
    def test_add_region(self):
        stmt = parse_one('ALTER DATABASE movr ADD REGION "australia-southeast1"')
        assert isinstance(stmt, ast.AlterDatabaseAddRegion)
        assert stmt.region == "australia-southeast1"

    def test_drop_region(self):
        stmt = parse_one('ALTER DATABASE movr DROP REGION "us-west1"')
        assert isinstance(stmt, ast.AlterDatabaseDropRegion)

    def test_survive_region_failure(self):
        stmt = parse_one("ALTER DATABASE movr SURVIVE REGION FAILURE")
        assert stmt.goal == "region"

    def test_survive_zone_failure(self):
        stmt = parse_one("ALTER DATABASE movr SURVIVE ZONE FAILURE")
        assert stmt.goal == "zone"

    def test_placement(self):
        assert parse_one("ALTER DATABASE movr PLACEMENT RESTRICTED").restricted
        assert not parse_one("ALTER DATABASE movr PLACEMENT DEFAULT").restricted


class TestCreateTable:
    def test_localities(self):
        stmt = parse_one(
            'CREATE TABLE west_coast_users (id int PRIMARY KEY) '
            'LOCALITY REGIONAL BY TABLE IN "us-west1"')
        assert isinstance(stmt.locality, ast.LocalityRegionalByTable)
        assert stmt.locality.region == "us-west1"

        stmt = parse_one("CREATE TABLE users (id int PRIMARY KEY) "
                         "LOCALITY REGIONAL BY ROW")
        assert isinstance(stmt.locality, ast.LocalityRegionalByRow)

        stmt = parse_one("CREATE TABLE promo_codes (id int PRIMARY KEY) "
                         "LOCALITY GLOBAL")
        assert isinstance(stmt.locality, ast.LocalityGlobal)

    def test_in_primary_region(self):
        stmt = parse_one("CREATE TABLE t (id int PRIMARY KEY) "
                         "LOCALITY REGIONAL BY TABLE IN PRIMARY REGION")
        assert stmt.locality.region is None

    def test_column_attributes(self):
        stmt = parse_one(
            "CREATE TABLE t (id uuid PRIMARY KEY DEFAULT gen_random_uuid(), "
            "email string UNIQUE NOT NULL, "
            "crdb_region crdb_internal_region NOT VISIBLE NOT NULL "
            "DEFAULT gateway_region() ON UPDATE rehome_row()) "
            "LOCALITY REGIONAL BY ROW")
        by_name = {c.name: c for c in stmt.columns}
        assert isinstance(by_name["id"].default, ast.FuncCall)
        assert by_name["id"].default.name == "gen_random_uuid"
        assert by_name["email"].unique and by_name["email"].not_null
        region = by_name["crdb_region"]
        assert not region.visible
        assert region.on_update.name == "rehome_row"
        assert stmt.primary_key == ["id"]
        assert ["email"] in stmt.unique_constraints

    def test_computed_region_column(self):
        stmt = parse_one(
            "CREATE TABLE t (id int PRIMARY KEY, state string, "
            "crdb_region crdb_internal_region AS "
            "(CASE WHEN state = 'CA' THEN 'us-west1' ELSE 'us-east1' END) "
            "STORED) LOCALITY REGIONAL BY ROW")
        region = [c for c in stmt.columns if c.name == "crdb_region"][0]
        assert isinstance(region.computed, ast.CaseWhen)

    def test_table_level_constraints(self):
        stmt = parse_one(
            "CREATE TABLE t (a int, b int, c int, PRIMARY KEY (a, b), "
            "UNIQUE (c))")
        assert stmt.primary_key == ["a", "b"]
        assert ["c"] in stmt.unique_constraints

    def test_foreign_key_parsed_and_ignored(self):
        stmt = parse_one(
            "CREATE TABLE t (a int PRIMARY KEY, b int, "
            "FOREIGN KEY (b) REFERENCES parent (id) ON UPDATE CASCADE)")
        assert [c.name for c in stmt.columns] == ["a", "b"]


class TestAlterTable:
    def test_set_locality(self):
        stmt = parse_one("ALTER TABLE promo_codes SET LOCALITY GLOBAL")
        assert isinstance(stmt, ast.AlterTableSetLocality)
        assert isinstance(stmt.locality, ast.LocalityGlobal)

    def test_add_column_paper_example(self):
        stmt = parse_one(
            "ALTER TABLE users ADD COLUMN crdb_region crdb_internal_region "
            "NOT VISIBLE NOT NULL DEFAULT gateway_region()")
        assert isinstance(stmt, ast.AlterTableAddColumn)
        assert stmt.column.name == "crdb_region"
        assert not stmt.column.visible


class TestDML:
    def test_insert_multi_row(self):
        stmt = parse_one(
            "INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        assert stmt.columns == ["a", "b"]
        assert len(stmt.rows) == 2

    def test_select_star_where(self):
        stmt = parse_one("SELECT * FROM users WHERE email = 'some-email'")
        assert stmt.columns == ["*"]
        assert isinstance(stmt.where, ast.Comparison)

    def test_select_with_limit(self):
        stmt = parse_one("SELECT a FROM t WHERE b = 1 LIMIT 5")
        assert stmt.limit == 5

    def test_select_in_list(self):
        stmt = parse_one("SELECT * FROM t WHERE id IN (1, 2, 3)")
        assert isinstance(stmt.where, ast.InList)
        assert len(stmt.where.values) == 3

    def test_select_and_conditions(self):
        stmt = parse_one("SELECT * FROM t WHERE a = 1 AND b = 2")
        assert isinstance(stmt.where, ast.LogicalAnd)

    def test_as_of_exact(self):
        stmt = parse_one("SELECT * FROM t AS OF SYSTEM TIME '-30s'")
        assert stmt.as_of.kind == "exact"

    def test_as_of_min_timestamp(self):
        stmt = parse_one("SELECT * FROM t AS OF SYSTEM TIME "
                         "with_min_timestamp('2021-01-02')")
        assert stmt.as_of.kind == "min_timestamp"

    def test_as_of_max_staleness(self):
        stmt = parse_one("SELECT * FROM t AS OF SYSTEM TIME "
                         "with_max_staleness('30s') WHERE id = 1")
        assert stmt.as_of.kind == "max_staleness"
        assert stmt.where is not None

    def test_update(self):
        stmt = parse_one("UPDATE t SET a = 1, b = 'x' WHERE id = 9")
        assert stmt.assignments[0] == ("a", ast.Literal(1))
        assert len(stmt.assignments) == 2

    def test_delete(self):
        stmt = parse_one("DELETE FROM t WHERE id = 3")
        assert isinstance(stmt, ast.Delete)

    def test_show_regions(self):
        stmt = parse_one("SHOW REGIONS FROM DATABASE movr")
        assert stmt.from_database == "movr"


class TestScripts:
    def test_multi_statement_script(self):
        statements = parse("CREATE DATABASE a; CREATE DATABASE b;")
        assert len(statements) == 2

    def test_parse_one_rejects_scripts(self):
        with pytest.raises(SqlSyntaxError):
            parse_one("SELECT * FROM a; SELECT * FROM b")

    def test_unsupported_statement(self):
        with pytest.raises(SqlSyntaxError):
            parse_one("GRANT ALL ON t TO bob")

    def test_error_reports_offset(self):
        with pytest.raises(SqlSyntaxError, match="offset"):
            parse_one("SELECT FROM WHERE")


# -- the shape path -------------------------------------------------------------
#
# ``parse`` cuts the literals out of DML text and parses once per shape; the
# reference is always a cold lex + parse of the same text.

LIT = "\x00"  # a literal's place in a generated statement structure

IDENTS = ["t", "users2", "ol_number", "field0", "w_id", "a", "b_1", "limits"]

ident = st.sampled_from(IDENTS)
literal = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.integers(0, 10**4).map(lambda n: f"+{n}"),
    st.tuples(st.integers(-9999, 9999), st.integers(0, 999)).map(
        lambda p: f"{p[0]}.{p[1]}"),
    st.text(alphabet="ab'1-; ,()=", max_size=8).map(
        lambda s: "'" + s.replace("'", "''") + "'"),
    st.sampled_from(["'us-east1'", "''", "'it''s'", "'-30s'", "'a--b'",
                     "-37.5", "TRUE", "NULL"]),
)
comparison = st.one_of(
    st.builds(lambda c, op: f"{c} {op} {LIT}", ident,
              st.sampled_from(["=", "<>", "!=", "<", ">="])),
    ident.map(lambda c: f"{LIT} = {c}"),
    ident.map(lambda c: f"{c} = lower({LIT})"),
)
where = st.one_of(
    st.lists(comparison, min_size=1, max_size=3).map(" AND ".join),
    st.builds(lambda c, n: f"{c} IN ({', '.join([LIT] * n)})", ident,
              st.integers(1, 4)),
)
opt_where = st.one_of(st.just(""), where.map(lambda w: f" WHERE {w}"))
as_of = st.sampled_from([
    "", f" AS OF SYSTEM TIME {LIT}",
    f" AS OF SYSTEM TIME with_max_staleness({LIT})"])
select = st.builds(
    lambda cols, t, a, w, limit, lock: f"SELECT {cols} FROM {t}{a}{w}{limit}"
                                       f"{lock}",
    st.one_of(st.just("*"), st.lists(ident, min_size=1, max_size=3).map(
        ", ".join)),
    ident, as_of, opt_where,
    st.sampled_from(["", " LIMIT 1", " LIMIT 15", " LIMIT  7"]),
    st.sampled_from(["", " FOR UPDATE"]))
insert = st.builds(
    lambda t, cols, n: f"INSERT INTO {t} ({', '.join(cols)}) VALUES " +
    ", ".join("(" + ", ".join([LIT] * len(cols)) + ")" for _ in range(n)),
    ident, st.lists(ident, min_size=1, max_size=4), st.integers(1, 3))
update = st.builds(
    lambda t, cols, w: f"UPDATE {t} SET " +
    ", ".join(f"{c} = {LIT}" for c in cols) + w,
    ident, st.lists(ident, min_size=1, max_size=3), opt_where)
delete = st.builds(lambda t, w: f"DELETE FROM {t}{w}", ident, opt_where)
#: Texts the grammar rejects for some or all literals: a literal where a
#: count or a signed number must stand, two in a row, garbage, a cut-off.
malformed = st.sampled_from([
    f"SELECT a FROM t LIMIT {LIT}", f"SELECT a FROM t WHERE a = - {LIT}",
    f"SELECT a FROM t WHERE a = -{LIT}", f"SELECT a FROM t WHERE a = {LIT} "
    f"{LIT}", "SELECT FROM WHERE", f"SELECT a FROM t WHERE a = {LIT} @",
    f"UPDATE t SET a = {LIT} WHERE", f"DELETE t WHERE a = {LIT}",
    f"INSERT INTO t (a) VALUES ({LIT}", f"SELECT a FROM t WHERE 'x{LIT}"])
statement = st.one_of(select, insert, update, delete, malformed)
script = st.lists(statement, min_size=1, max_size=3).map("; ".join)
noise = st.sampled_from([
    lambda s: s, lambda s: s + ";", lambda s: s.replace(" ", "  "),
    lambda s: s.replace(" ", "\n"), lambda s: s.replace(" ", " -- x 5\n", 1),
    lambda s: s.lower()])


def render(structure, literals):
    pieces = structure.split(LIT)
    return "".join(p + l for p, l in zip(pieces, literals)) + pieces[-1]


def cold(text):
    return _Parser(tokenize(text)).parse_script()


def outcome(parse_fn, text):
    try:
        return parse_fn(text)
    except SqlSyntaxError as exc:
        return ("syntax error", str(exc))


class TestShapePath:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_equals_cold_parse(self, data):
        """Same statements — or the same error, message and offset — as
        lexing and parsing the text from scratch: on the shape's first
        text, on a second text of the shape, and on the first again."""
        structure = data.draw(noise)(data.draw(script))
        slots = structure.count(LIT)
        texts = [render(structure, data.draw(
            st.lists(literal, min_size=slots, max_size=slots)))
            for _ in range(2)]
        for text in texts + texts[:1]:
            assert outcome(parse, text) == outcome(cold, text), text

    @pytest.mark.parametrize("text", [
        "UPDATE customer SET balance = -37.5 WHERE w_id = 3 AND c_id = 4",
        "UPDATE customer SET balance = 37.5 WHERE w_id = 3 AND c_id = 4",
        "INSERT INTO users (id, city, name) VALUES (7, 'us-east1', 'it''s')",
        "INSERT INTO order_line (ol_number, field0) VALUES (1, ''), (2, '2')",
        "SELECT * FROM t WHERE id IN (1, 2)",
        "SELECT * FROM t WHERE id IN (1, 2, 3)",
        "SELECT a FROM t WHERE b = 1 LIMIT 5 FOR UPDATE",
        "SELECT * FROM t AS OF SYSTEM TIME '-30s' WHERE id = 9",
        "DELETE FROM t WHERE a = 1; SELECT a FROM t WHERE a = 1;",
        "SELECT a FROM t WHERE a = TRUE AND b = NULL AND c = 0",
    ])
    def test_workload_style_texts(self, text):
        _PARSE_CACHE.clear()
        assert parse(text) == cold(text)
        assert parse(text) == cold(text)

    def test_one_shape_many_texts(self):
        _PARSE_CACHE.clear()
        for i in range(50):
            stmt = parse_one(f"SELECT name FROM users WHERE id = {i} "
                             f"AND city = 'c{i}'")
            assert stmt.params == (i, f"c{i}")
        assert len(_PARSE_CACHE) == 1
        a, b = (parse_one(f"SELECT name FROM users WHERE id = {i} "
                          f"AND city = 'x'") for i in (1, 2))
        assert a.compiled is b.compiled and a is not b

    def test_limit_and_for_update_are_structural(self):
        _PARSE_CACHE.clear()
        texts = ["SELECT a FROM t WHERE b = 1 LIMIT 5",
                 "SELECT a FROM t WHERE b = 1 LIMIT 6",
                 "SELECT a FROM t WHERE b = 1 LIMIT 5 FOR UPDATE"]
        for text in texts:
            stmt = parse_one(text)
            assert stmt.params == (1,) and stmt == cold(text)[0]
        assert len(_PARSE_CACHE) == 3

    @pytest.mark.parametrize("warm,text", [
        ("SELECT a FROM t WHERE a = 5", "SELECT a FROM t WHERE a = 'x' 7"),
        ("SELECT a FROM t WHERE a = -5", "SELECT a FROM t WHERE a = -'x'"),
        ("SELECT a FROM t LIMIT 5", "SELECT a FROM t LIMIT 'x'"),
        ("SELECT a FROM t WHERE a = 5", "SELECT a FROM t WHERE a = 5 @"),
        ("DELETE FROM t WHERE a = 1", "DELETE FROM t WHERE a = 'abc"),
    ])
    def test_syntax_errors_keep_message_and_offset(self, warm, text):
        parse(warm)  # a valid neighbour's shape is cached first
        with pytest.raises(SqlSyntaxError) as want:
            cold(text)
        for _ in range(2):
            with pytest.raises(SqlSyntaxError) as got:
                parse(text)
            assert str(got.value) == str(want.value)

    def test_ddl_is_never_parameterised(self):
        _PARSE_CACHE.clear()
        texts = [f"CREATE TABLE t{n} (id int PRIMARY KEY, v int DEFAULT {n}, "
                 f"s string DEFAULT 'd{n}')" for n in (1, 2)]
        texts.append("ALTER TABLE t1 ADD COLUMN w int DEFAULT 3")
        for text in texts:
            assert parse(text) == cold(text)
            assert parse(text) is parse(text)  # cached by text
        assert sorted(_PARSE_CACHE) == sorted(texts)
        default = parse_one(texts[0]).columns[1].default
        assert default == ast.Literal(1)

    def test_cache_is_bounded_in_shapes(self, monkeypatch):
        _PARSE_CACHE.clear()
        monkeypatch.setattr(parser_module, "_PARSE_CACHE_MAX", 8)
        for table in range(20):         # 20 shapes, 5 texts each
            for key in range(5):
                text = f"SELECT a FROM t{table} WHERE a = {key}"
                assert parse(text) == cold(text)
        assert len(_PARSE_CACHE) == 8
        _PARSE_CACHE.clear()
        for key in range(100):          # 100 texts, one shape
            parse(f"SELECT a FROM t WHERE a = {key}")
        assert len(_PARSE_CACHE) == 1


class TestShapeExecution:
    def test_interleaved_clients_keep_their_own_literals(self):
        """Two clients run the same statement shapes with different
        literals, interleaved statement by statement in one simulation."""
        engine, _session = movr_engine()
        sim = engine.cluster.sim
        seen = {}

        def client(session, base):
            rows = []
            for i in range(base, base + 6):
                yield from session.execute_co(
                    f"INSERT INTO users (id, email, name) "
                    f"VALUES ({i}, 'e{i}@x', 'user-{i}')")
                yield from session.execute_co(
                    f"UPDATE users SET name = 'renamed-{i}' WHERE id = {i}")
                rows.append((yield from session.execute_co(
                    f"SELECT id, name FROM users WHERE id = {i}")))
            seen[base] = rows

        clients = [sim.spawn(client(connect(engine, region), base))
                   for region, base in (("us-east1", 100), ("us-west1", 200))]
        for process in clients:
            sim.run_until_future(process)
        for base in (100, 200):
            assert seen[base] == [[{"id": i, "name": f"renamed-{i}"}]
                                  for i in range(base, base + 6)]

    def test_execution_reads_no_literal_field(self):
        """The executor runs from ``compiled`` and ``params``; building a
        statement's literal trees is for inspection only."""
        engine, session = movr_engine()
        statements = [parse_one(text) for text in (
            "INSERT INTO users (id, email, name) VALUES (1, 'a@x', 'A')",
            "SELECT name FROM users WHERE id = 1",
            "UPDATE users SET name = 'B' WHERE id = 1",
            "SELECT name FROM users AS OF SYSTEM TIME '-1ms' WHERE id = 1",
            "DELETE FROM users WHERE id = 1")]
        for stmt in statements:
            session.execute_stmt(stmt)
            assert not set(vars(stmt)) & set(stmt.literal_fields)
        assert statements[1].where == ast.Comparison(
            "=", ast.ColumnRef("id"), ast.Literal(1))

    def test_hand_built_statement_runs_the_same_path(self):
        engine, session = movr_engine()
        session.execute(
            "INSERT INTO users (id, email, name) VALUES (1, 'a@x', 'A')")
        where = ast.Comparison("=", ast.ColumnRef("id"), ast.Literal(1))
        built = ast.Select(table="users", columns=["name"], where=where)
        assert built.params == () and built.compiled.eq == (
            ("id", ast.Literal(1)),)
        assert session.execute_stmt(built) == [{"name": "A"}]
        assert built == parse_one("SELECT name FROM users WHERE id = 1")
