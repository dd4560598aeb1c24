"""SQL expression evaluation.

Expressions are evaluated against a row (a dict of column values), an
environment carrying the gateway region and a deterministic UUID source,
and — for the trees of a statement shape, whose literals are
:class:`~repro.sql.ast.Param` slots — the literal values of the statement
being executed.
The built-ins are the ones the paper uses:

* ``gateway_region()`` — the region of the node the client connected to;
* ``gen_random_uuid()`` — default for UUID key columns (§4.1 rule 1);
* ``rehome_row()`` — ON UPDATE marker enabling automatic rehoming
  (§2.3.2); evaluates to the gateway region.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..errors import SchemaError
from . import ast
from .ast import columns_referenced  # re-exported: it lived here once

__all__ = ["EvalEnv", "evaluate", "columns_referenced"]


@dataclass
class EvalEnv:
    """Everything an expression can observe besides the row."""

    gateway_region: Optional[str] = None
    uuid_source: Optional[Any] = None  # random.Random for determinism

    def make_uuid(self) -> str:
        if self.uuid_source is not None:
            return str(uuid.UUID(int=self.uuid_source.getrandbits(128)))
        return str(uuid.uuid4())


#: Shared read-only default environment; avoids one EvalEnv() per call.
_DEFAULT_ENV = EvalEnv()
_EMPTY_ROW: Dict[str, Any] = {}


def evaluate(expr: Any, row: Optional[Dict[str, Any]] = None,
             env: Optional[EvalEnv] = None, params: Tuple = ()) -> Any:
    """Evaluate an expression AST to a Python value."""
    if row is None:
        row = _EMPTY_ROW
    if env is None:
        env = _DEFAULT_ENV
    handler = _DISPATCH.get(type(expr))
    if handler is None:
        raise SchemaError(f"cannot evaluate expression {expr!r}")
    return handler(expr, row, env, params)


def _eval_literal(expr, row, env, params):
    return expr.value


def _eval_param(expr, row, env, params):
    return params[expr.slot]


def _eval_column(expr, row, env, params):
    name = expr.name
    if name not in row:
        raise SchemaError(f"unknown column {name!r} in expression")
    return row[name]


def _eval_case(expr, row, env, params):
    for condition, result in expr.whens:
        if evaluate(condition, row, env, params):
            return evaluate(result, row, env, params)
    return evaluate(expr.default, row, env, params)


def _eval_comparison(expr, row, env, params):
    left = evaluate(expr.left, row, env, params)
    right = evaluate(expr.right, row, env, params)
    return _compare(expr.op, left, right)


def _eval_and(expr, row, env, params):
    for part in expr.parts:
        if not evaluate(part, row, env, params):
            return False
    return True


def _eval_in(expr, row, env, params):
    value = evaluate(expr.column, row, env, params)
    for v in expr.values:
        if value == evaluate(v, row, env, params):
            return True
    return False


def _call_builtin(expr: ast.FuncCall, row: Dict[str, Any],
                  env: EvalEnv, params: Tuple) -> Any:
    name = expr.name
    if name == "gateway_region":
        if env.gateway_region is None:
            raise SchemaError("gateway_region() outside a session")
        return env.gateway_region
    if name == "rehome_row":
        # ON UPDATE rehome_row(): move the row to the writing region.
        if env.gateway_region is None:
            raise SchemaError("rehome_row() outside a session")
        return env.gateway_region
    if name == "gen_random_uuid":
        return env.make_uuid()
    if name == "lower":
        return str(evaluate(expr.args[0], row, env, params)).lower()
    if name == "upper":
        return str(evaluate(expr.args[0], row, env, params)).upper()
    if name == "concat":
        return "".join(str(evaluate(a, row, env, params)) for a in expr.args)
    if name == "mod":
        left = evaluate(expr.args[0], row, env, params)
        right = evaluate(expr.args[1], row, env, params)
        return left % right
    raise SchemaError(f"unknown function {name!r}")


def _compare(op: str, left: Any, right: Any) -> bool:
    if left is None or right is None:
        return False  # SQL NULL semantics (enough for this dialect)
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise SchemaError(f"unknown comparison operator {op!r}")


_DISPATCH = {
    ast.Literal: _eval_literal,
    ast.Param: _eval_param,
    ast.ColumnRef: _eval_column,
    ast.FuncCall: _call_builtin,
    ast.CaseWhen: _eval_case,
    ast.Comparison: _eval_comparison,
    ast.LogicalAnd: _eval_and,
    ast.InList: _eval_in,
}
