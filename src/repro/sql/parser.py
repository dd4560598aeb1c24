"""Recursive-descent parser for the multi-region SQL dialect.

Covers the paper's DDL (§2) — multi-region database management, table
localities, survivability goals, placement — and the DML used by the
workloads (point/limited SELECT with ``AS OF SYSTEM TIME``, INSERT,
UPDATE, DELETE).
"""

from __future__ import annotations

from typing import Any, List, Optional

from ..errors import SqlSyntaxError
from . import ast
from .lexer import Token, cut_literals, retag_literals, tokenize

__all__ = ["parse", "parse_one"]


#: The parse cache, bounded; once full, new entries parse uncached.  Two
#: kinds of key share it:
#:
#: * a **shape** — the tuple of text pieces left when the number and
#:   string literals are cut out of a DML script — maps to that script
#:   compiled once: per statement, its class and the attributes every
#:   statement of the shape shares (among them the ``Compiled`` trees,
#:   with a ``Param`` where a literal stood).  Workloads inline every
#:   literal in the text, so texts rarely repeat but a handful of shapes
#:   covers them all: a hit binds the literal values and neither lexes
#:   nor parses.
#: * a whole SQL **text** maps to its statement list: DDL, and DML the
#:   shape path declines (see ``_compile_shape``).
_PARSE_CACHE: dict = {}
_PARSE_CACHE_MAX = 4096

_DML = (ast.Select, ast.Insert, ast.Update, ast.Delete)


def parse(sql: str) -> List[Any]:
    """Parse a semicolon-separated script into a list of statements.

    DML is parsed per shape, DDL per text (see ``_PARSE_CACHE``); either
    way the result equals what lexing and parsing ``sql`` from scratch
    gives.  Callers must treat the returned statements, and everything
    reachable from them, as immutable: most of it is shared.
    """
    pieces = cut_literals(sql)
    key = tuple(pieces[0::2])
    shape = _PARSE_CACHE.get(key)
    if shape is None:
        statements = _PARSE_CACHE.get(sql)
        if statements is not None:
            return statements
        tokens = tokenize(sql)
        shape = _compile_shape(tokens, pieces)
        if shape is None:
            statements = _Parser(tokens).parse_script()
            _remember(sql, statements)
            return statements
        _remember(key, shape)
    # The values the lexer and ``_Parser._primary`` give these literals.
    params = tuple([
        text[1:-1].replace("''", "'") if text[0] == "'"
        else float(text) if "." in text else int(text)
        for text in pieces[1::2]])
    statements = []
    for cls, shared in shape:
        stmt = cls.__new__(cls)
        attrs = stmt.__dict__
        attrs.update(shared)
        attrs["params"] = params
        statements.append(stmt)
    return statements


def _remember(key: Any, value: list) -> None:
    if len(_PARSE_CACHE) < _PARSE_CACHE_MAX:
        _PARSE_CACHE[key] = value


def _compile_shape(tokens: List[Token], pieces: List[str]) -> Optional[list]:
    """Compile the script ``tokens`` spell as a shape, or return None.

    Each literal ``cut_literals`` took out reaches the parser as one
    ``param`` token, which the grammar accepts only where any literal may
    stand.  Everything else declines: DDL (never parameterised), a
    literal where the grammar wants a number (``LIMIT  5`` with two
    spaces, ``- 5``), a cut the lexer does not see as a literal, and text
    that does not parse at all — the caller then parses the plain tokens,
    which is also what words any error.
    """
    # An early out for DDL, which would otherwise be parsed twice; the
    # rule itself is the isinstance check below.
    if tokens[0].upper not in ("SELECT", "INSERT", "UPDATE", "DELETE"):
        return None
    retagged = retag_literals(tokens, pieces)
    if retagged is None:
        return None
    try:
        templates = _Parser(retagged).parse_script()
    except SqlSyntaxError:
        return None
    shape = []
    for template in templates:
        if not isinstance(template, _DML):
            return None
        template.compiled  # derive it now, once, into vars(template)
        shape.append((type(template), {
            name: value for name, value in vars(template).items()
            if name not in template.literal_fields}))
    return shape


def parse_one(sql: str) -> Any:
    """Parse exactly one statement."""
    statements = parse(sql)
    if len(statements) != 1:
        raise SqlSyntaxError(
            f"expected exactly one statement, found {len(statements)}")
    return statements[0]


class _Parser:
    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._index = 0
        #: ``param`` tokens turned into ``ast.Param`` so far (the next
        #: slot); stays 0 for plain tokens, which have none.
        self._params = 0

    # -- token plumbing ---------------------------------------------------------
    #
    # The helpers below index self._tokens directly instead of chaining
    # through _peek: the parser runs on every workload statement and the
    # extra frames dominated its profile.  self._index never passes the
    # trailing eof token, so offset-0 reads need no bounds check.

    def _peek(self, offset: int = 0) -> Token:
        if offset == 0:
            return self._tokens[self._index]
        return self._tokens[min(self._index + offset, len(self._tokens) - 1)]

    def _next(self) -> Token:
        token = self._tokens[self._index]
        if token.kind != "eof":
            self._index += 1
        return token

    def _at_keyword(self, *words: str) -> bool:
        tokens = self._tokens
        index = self._index
        last = len(tokens) - 1
        for word in words:
            token = tokens[index if index < last else last]
            if token.kind != "ident" or token.upper != word:
                return False
            index += 1
        return True

    def _accept_keyword(self, *words: str) -> bool:
        if len(words) == 1:
            token = self._tokens[self._index]
            if token.kind == "ident" and token.upper == words[0]:
                self._index += 1
                return True
            return False
        if self._at_keyword(*words):
            self._index += len(words)
            return True
        return False

    def _expect_keyword(self, *words: str) -> None:
        if not self._accept_keyword(*words):
            token = self._peek()
            raise SqlSyntaxError(
                f"expected {' '.join(words)}, found {token.text!r} "
                f"at offset {token.pos}")

    def _accept_op(self, op: str) -> bool:
        token = self._tokens[self._index]
        if token.kind == "op" and token.text == op:
            self._index += 1
            return True
        return False

    def _expect_op(self, op: str) -> None:
        if not self._accept_op(op):
            token = self._peek()
            raise SqlSyntaxError(
                f"expected {op!r}, found {token.text!r} at offset {token.pos}")

    def _expect_ident(self) -> str:
        token = self._tokens[self._index]
        if token.kind != "ident":
            raise SqlSyntaxError(
                f"expected identifier, found {token.text!r} at {token.pos}")
        self._index += 1
        return token.text

    # -- entry points -------------------------------------------------------------

    def parse_script(self) -> List[Any]:
        statements = []
        while self._peek().kind != "eof":
            if self._accept_op(";"):
                continue
            statements.append(self._statement())
            if self._peek().kind != "eof":
                self._expect_op(";")
        return statements

    def _statement(self) -> Any:
        # Single dispatch on the leading keyword (the workload-hot DML
        # first), then the original multi-word checks within a branch.
        token = self._tokens[self._index]
        keyword = token.upper if token.kind == "ident" else ""
        if keyword == "INSERT":
            return self._insert()
        if keyword == "SELECT":
            return self._select()
        if keyword == "UPDATE":
            return self._update()
        if keyword == "DELETE":
            return self._delete()
        if keyword == "CREATE":
            if self._at_keyword("CREATE", "DATABASE"):
                return self._create_database()
            if self._at_keyword("CREATE", "TABLE"):
                return self._create_table()
            if self._at_keyword("CREATE", "UNIQUE", "INDEX") or \
                    self._at_keyword("CREATE", "INDEX"):
                return self._create_index()
        elif keyword == "ALTER":
            if self._at_keyword("ALTER", "DATABASE"):
                return self._alter_database()
            if self._at_keyword("ALTER", "TABLE"):
                return self._alter_table()
        elif keyword == "DROP":
            if self._at_keyword("DROP", "TABLE"):
                self._expect_keyword("DROP", "TABLE")
                return ast.DropTable(name=self._expect_ident())
        elif keyword == "SHOW":
            if self._at_keyword("SHOW", "REGIONS"):
                return self._show_regions()
            if self._at_keyword("SHOW", "RANGES"):
                self._expect_keyword("SHOW", "RANGES", "FROM", "TABLE")
                return ast.ShowRanges(table=self._expect_ident())
            if self._at_keyword("SHOW", "ZONE", "CONFIGURATION"):
                self._expect_keyword("SHOW", "ZONE", "CONFIGURATION", "FOR",
                                     "TABLE")
                return ast.ShowZoneConfiguration(table=self._expect_ident())
        elif keyword == "USE":
            self._expect_keyword("USE")
            return ast.UseDatabase(name=self._expect_ident())
        elif keyword == "EXPLAIN":
            self._expect_keyword("EXPLAIN")
            return ast.Explain(statement=self._statement())
        elif keyword == "BEGIN":
            self._index += 1
            return ast.Begin()
        elif keyword == "COMMIT":
            self._index += 1
            return ast.Commit()
        elif keyword == "ROLLBACK":
            self._index += 1
            return ast.Rollback()
        raise SqlSyntaxError(
            f"unsupported statement starting with {token.text!r} "
            f"at offset {token.pos}")

    # -- databases ----------------------------------------------------------------

    def _create_database(self) -> ast.CreateDatabase:
        self._expect_keyword("CREATE", "DATABASE")
        name = self._expect_ident()
        primary = None
        regions: List[str] = []
        if self._accept_keyword("PRIMARY", "REGION"):
            primary = self._expect_ident()
        if self._accept_keyword("REGIONS"):
            regions.append(self._expect_ident())
            while self._accept_op(","):
                regions.append(self._expect_ident())
        return ast.CreateDatabase(name=name, primary_region=primary,
                                  regions=regions)

    def _alter_database(self) -> Any:
        self._expect_keyword("ALTER", "DATABASE")
        name = self._expect_ident()
        if self._accept_keyword("ADD", "REGION"):
            return ast.AlterDatabaseAddRegion(name, self._expect_ident())
        if self._accept_keyword("DROP", "REGION"):
            return ast.AlterDatabaseDropRegion(name, self._expect_ident())
        if self._accept_keyword("SET", "PRIMARY", "REGION"):
            return ast.AlterDatabaseSetPrimaryRegion(name, self._expect_ident())
        if self._accept_keyword("SURVIVE", "REGION", "FAILURE"):
            return ast.AlterDatabaseSurvive(name, goal="region")
        if self._accept_keyword("SURVIVE", "ZONE", "FAILURE"):
            return ast.AlterDatabaseSurvive(name, goal="zone")
        if self._accept_keyword("PLACEMENT", "RESTRICTED"):
            return ast.AlterDatabasePlacement(name, restricted=True)
        if self._accept_keyword("PLACEMENT", "DEFAULT"):
            return ast.AlterDatabasePlacement(name, restricted=False)
        token = self._peek()
        raise SqlSyntaxError(
            f"unsupported ALTER DATABASE clause at {token.pos}")

    # -- tables -----------------------------------------------------------------------

    def _create_table(self) -> ast.CreateTable:
        self._expect_keyword("CREATE", "TABLE")
        name = self._expect_ident()
        self._expect_op("(")
        columns: List[ast.ColumnDef] = []
        primary_key: List[str] = []
        uniques: List[List[str]] = []
        foreign_keys: List[ast.ForeignKeyDef] = []
        while True:
            if self._accept_keyword("PRIMARY", "KEY"):
                primary_key = self._column_name_list()
            elif self._accept_keyword("UNIQUE"):
                uniques.append(self._column_name_list())
            elif self._accept_keyword("FOREIGN", "KEY"):
                fk_columns = self._column_name_list()
                self._expect_keyword("REFERENCES")
                parent = self._expect_ident()
                parent_columns = []
                if self._accept_op("("):
                    parent_columns.append(self._expect_ident())
                    while self._accept_op(","):
                        parent_columns.append(self._expect_ident())
                    self._expect_op(")")
                cascade = False
                while self._accept_keyword("ON"):
                    action_kind = self._expect_ident()  # UPDATE / DELETE
                    action = self._expect_ident()       # CASCADE / ...
                    if action_kind.upper() == "UPDATE" and \
                            action.upper() == "CASCADE":
                        cascade = True
                foreign_keys.append(ast.ForeignKeyDef(
                    columns=fk_columns, parent=parent,
                    parent_columns=parent_columns,
                    on_update_cascade=cascade))
            else:
                columns.append(self._column_def())
            if not self._accept_op(","):
                break
        self._expect_op(")")
        locality = self._locality_clause()
        for column in columns:
            if column.primary_key and column.name not in primary_key:
                primary_key.append(column.name)
            if column.unique and [column.name] not in uniques:
                uniques.append([column.name])
        return ast.CreateTable(name=name, columns=columns,
                               primary_key=primary_key,
                               unique_constraints=uniques,
                               foreign_keys=foreign_keys,
                               locality=locality)

    def _column_name_list(self) -> List[str]:
        self._expect_op("(")
        names = [self._expect_ident()]
        while self._accept_op(","):
            names.append(self._expect_ident())
        self._expect_op(")")
        return names

    def _column_def(self) -> ast.ColumnDef:
        name = self._expect_ident()
        type_name = self._expect_ident().lower()
        column = ast.ColumnDef(name=name, type_name=type_name)
        while True:
            if self._accept_keyword("PRIMARY", "KEY"):
                column.primary_key = True
            elif self._accept_keyword("NOT", "NULL"):
                column.not_null = True
            elif self._accept_keyword("NOT", "VISIBLE"):
                column.visible = False
            elif self._accept_keyword("UNIQUE"):
                column.unique = True
            elif self._accept_keyword("DEFAULT"):
                column.default = self._expression()
            elif self._accept_keyword("AS"):
                self._expect_op("(")
                column.computed = self._expression()
                self._expect_op(")")
                self._expect_keyword("STORED")
            elif self._accept_keyword("ON", "UPDATE"):
                column.on_update = self._expression()
            elif self._accept_keyword("REFERENCES"):
                column.references = self._expect_ident()
                if self._accept_op("("):
                    while not self._accept_op(")"):
                        self._next()
            else:
                break
        return column

    def _locality_clause(self) -> Optional[Any]:
        if not self._accept_keyword("LOCALITY"):
            return None
        return self._locality()

    def _locality(self) -> Any:
        if self._accept_keyword("GLOBAL"):
            return ast.LocalityGlobal()
        if self._accept_keyword("REGIONAL", "BY", "ROW"):
            column = None
            if self._accept_keyword("AS"):
                column = self._expect_ident()
            return ast.LocalityRegionalByRow(column=column)
        if self._accept_keyword("REGIONAL", "BY", "TABLE"):
            region = None
            if self._accept_keyword("IN"):
                if self._accept_keyword("PRIMARY", "REGION"):
                    region = None
                else:
                    region = self._expect_ident()
            return ast.LocalityRegionalByTable(region=region)
        token = self._peek()
        raise SqlSyntaxError(f"unsupported LOCALITY at offset {token.pos}")

    def _alter_table(self) -> Any:
        self._expect_keyword("ALTER", "TABLE")
        name = self._expect_ident()
        if self._accept_keyword("SET", "LOCALITY"):
            return ast.AlterTableSetLocality(name, self._locality())
        if self._accept_keyword("ADD", "COLUMN"):
            return ast.AlterTableAddColumn(name, self._column_def())
        token = self._peek()
        raise SqlSyntaxError(f"unsupported ALTER TABLE clause at {token.pos}")

    def _create_index(self) -> ast.CreateIndex:
        self._expect_keyword("CREATE")
        unique = self._accept_keyword("UNIQUE")
        self._expect_keyword("INDEX")
        name = self._expect_ident()
        self._expect_keyword("ON")
        table = self._expect_ident()
        columns = self._column_name_list()
        return ast.CreateIndex(name=name, table=table, columns=columns,
                               unique=unique)

    # -- DML ------------------------------------------------------------------------------

    def _insert(self) -> ast.Insert:
        self._expect_keyword("INSERT", "INTO")
        table = self._expect_ident()
        columns = self._column_name_list()
        self._expect_keyword("VALUES")
        rows = []
        while True:
            self._expect_op("(")
            row = [self._expression()]
            while self._accept_op(","):
                row.append(self._expression())
            self._expect_op(")")
            rows.append(row)
            if not self._accept_op(","):
                break
        return ast.Insert(table=table, columns=columns, rows=rows)

    def _select(self) -> ast.Select:
        self._expect_keyword("SELECT")
        columns: List[str] = []
        if self._accept_op("*"):
            columns = ["*"]
        else:
            columns.append(self._expect_ident())
            while self._accept_op(","):
                columns.append(self._expect_ident())
        self._expect_keyword("FROM")
        table = self._expect_ident()
        as_of = self._as_of_clause()
        where = None
        if self._accept_keyword("WHERE"):
            where = self._expression()
        if as_of is None:
            as_of = self._as_of_clause()
        limit = None
        if self._accept_keyword("LIMIT"):
            token = self._next()
            if token.kind != "number" or "." in token.text:
                raise SqlSyntaxError(f"expected LIMIT count at {token.pos}")
            limit = int(token.text)
        for_update = self._accept_keyword("FOR", "UPDATE")
        return ast.Select(table=table, columns=columns, where=where,
                          as_of=as_of, limit=limit, for_update=for_update)

    def _as_of_clause(self) -> Optional[ast.AsOf]:
        if not self._accept_keyword("AS", "OF", "SYSTEM", "TIME"):
            return None
        token = self._peek()
        if token.kind == "ident" and token.upper == "WITH_MIN_TIMESTAMP":
            self._next()
            self._expect_op("(")
            value = self._expression()
            self._expect_op(")")
            return ast.AsOf(kind="min_timestamp", value=value)
        if token.kind == "ident" and token.upper == "WITH_MAX_STALENESS":
            self._next()
            self._expect_op("(")
            value = self._expression()
            self._expect_op(")")
            return ast.AsOf(kind="max_staleness", value=value)
        value = self._expression()
        return ast.AsOf(kind="exact", value=value)

    def _update(self) -> ast.Update:
        self._expect_keyword("UPDATE")
        table = self._expect_ident()
        self._expect_keyword("SET")
        assignments = []
        while True:
            column = self._expect_ident()
            self._expect_op("=")
            assignments.append((column, self._expression()))
            if not self._accept_op(","):
                break
        where = None
        if self._accept_keyword("WHERE"):
            where = self._expression()
        return ast.Update(table=table, assignments=assignments, where=where)

    def _delete(self) -> ast.Delete:
        self._expect_keyword("DELETE", "FROM")
        table = self._expect_ident()
        where = None
        if self._accept_keyword("WHERE"):
            where = self._expression()
        return ast.Delete(table=table, where=where)

    def _show_regions(self) -> ast.ShowRegions:
        self._expect_keyword("SHOW", "REGIONS")
        database = None
        if self._accept_keyword("FROM", "DATABASE"):
            database = self._expect_ident()
        return ast.ShowRegions(from_database=database)

    # -- expressions ----------------------------------------------------------------------

    #: '!=' normalizes to '<>'; everything else maps to itself.
    _CMP_OPS = {"<>": "<>", "!=": "<>", "<=": "<=", ">=": ">=",
                "=": "=", "<": "<", ">": ">"}

    def _expression(self) -> Any:
        return self._and_expr()

    def _and_expr(self) -> Any:
        left = self._comparison()
        if not self._accept_keyword("AND"):
            return left
        parts = [left, self._comparison()]
        while self._accept_keyword("AND"):
            parts.append(self._comparison())
        return ast.LogicalAnd(parts=tuple(parts))

    def _comparison(self) -> Any:
        left = self._primary()
        token = self._tokens[self._index]
        kind = token.kind
        if kind == "op":
            normalized = self._CMP_OPS.get(token.text)
            if normalized is not None:
                self._index += 1
                right = self._primary()
                return ast.Comparison(op=normalized, left=left, right=right)
            return left
        if kind == "ident" and token.upper == "IN":
            self._index += 1
            self._expect_op("(")
            values = [self._primary()]
            while self._accept_op(","):
                values.append(self._primary())
            self._expect_op(")")
            if not isinstance(left, ast.ColumnRef):
                raise SqlSyntaxError("IN requires a column on the left")
            return ast.InList(column=left, values=tuple(values))
        return left

    def _primary(self) -> Any:
        token = self._tokens[self._index]
        kind = token.kind
        if kind == "number":
            self._index += 1
            text = token.text
            return ast.Literal(float(text) if "." in text else int(text))
        if kind == "string":
            self._index += 1
            return ast.Literal(token.text)
        if kind == "param":
            self._index += 1
            self._params += 1
            return ast.Param(self._params - 1)
        if kind == "ident":
            upper = token.upper
            if upper == "CASE":
                return self._case_when()
            if upper in ("TRUE", "FALSE"):
                self._index += 1
                return ast.Literal(upper == "TRUE")
            if upper == "NULL":
                self._index += 1
                return ast.Literal(None)
            # function call or column reference
            self._index += 1
            name = token.text
            if self._accept_op("("):
                args = []
                if not self._accept_op(")"):
                    args.append(self._expression())
                    while self._accept_op(","):
                        args.append(self._expression())
                    self._expect_op(")")
                return ast.FuncCall(name=name.lower(), args=tuple(args))
            return ast.ColumnRef(name=name)
        if kind == "op":
            text = token.text
            if text == "-" or text == "+":
                self._index += 1
                number = self._next()
                if number.kind != "number":
                    raise SqlSyntaxError(
                        f"expected number after {text!r} at {number.pos}")
                value = (float(number.text) if "." in number.text
                         else int(number.text))
                return ast.Literal(-value if text == "-" else value)
            if text == "(":
                self._index += 1
                inner = self._expression()
                self._expect_op(")")
                return inner
        raise SqlSyntaxError(
            f"unexpected token {token.text!r} at offset {token.pos}")

    def _case_when(self) -> ast.CaseWhen:
        self._expect_keyword("CASE")
        whens = []
        while self._accept_keyword("WHEN"):
            condition = self._expression()
            self._expect_keyword("THEN")
            result = self._expression()
            whens.append((condition, result))
        default = ast.Literal(None)
        if self._accept_keyword("ELSE"):
            default = self._expression()
        self._expect_keyword("END")
        return ast.CaseWhen(whens=tuple(whens), default=default)
