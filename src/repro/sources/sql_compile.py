"""Compilation of algebra expressions to SQLite SQL.

The paper stresses that virtual-contributor sources "can be played by all
kinds of DBMS, including legacy systems".  To exercise that claim with a
real DBMS, :class:`~repro.sources.sqlite_source.SQLiteSource` pushes whole
algebra expressions down to SQLite; this module is the compiler.

Mapping:

=================  =======================================
Algebra            SQL
=================  =======================================
``Scan``           ``SELECT cols FROM "table"``
``Select``         ``SELECT * FROM (child) WHERE pred``
``Project``        ``SELECT cols FROM (child)`` (``DISTINCT`` when dedup)
``Join`` (theta)   ``... JOIN ... ON cond`` (names are globally unique)
``Join`` (natural) ``... NATURAL JOIN ...``
``Union``          ``UNION ALL`` (bag union)
``Difference``     ``EXCEPT``   (set semantics — matches paper set nodes)
``Rename``         ``SELECT old AS new, ...``
=================  =======================================

Constants are always emitted as ``?`` parameters, never interpolated.
``=`` / ``!=`` compile to ``IS`` / ``IS NOT``: the in-memory evaluator is
two-valued (``None = None`` holds, ``None != 3`` holds), SQL's ``=`` / ``<>``
are three-valued and would silently drop those rows, and SQLite searches an
index for ``IS ?`` exactly as it does for ``= ?``.  (Two divergences remain,
pinned as strict xfails in ``tests/properties/test_sqlite_equivalence.py``:
an *ordering* comparison against ``None`` is a ``TypeError`` in memory and an
unselected row in SQLite, and ``/`` on two integers is true division in
memory and integer division in SQLite.)  The ``^`` power operator is
unrolled into repeated multiplication for small non-negative integer
exponents (SQLite has no ``pow`` without extensions); anything else raises
:class:`~repro.errors.EvaluationError`.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Tuple

from repro.errors import EvaluationError
from repro.relalg.expressions import (
    Difference,
    Expression,
    Join,
    Project,
    Rename,
    Scan,
    Select,
    Union,
)
from repro.relalg.predicates import (
    And,
    Arith,
    Attr,
    Comparison,
    Const,
    Not,
    Or,
    Predicate,
    Term,
    TruePredicate,
)
from repro.relalg.schema import RelationSchema

__all__ = ["compile_expression", "compile_chain_select", "compile_predicate"]

_MAX_UNROLLED_EXPONENT = 8


def _quote(identifier: str) -> str:
    return '"' + identifier.replace('"', '""') + '"'


def compile_predicate(pred: Predicate, params: List[Any]) -> str:
    """Compile a predicate to a SQL boolean expression, appending parameters."""
    if isinstance(pred, TruePredicate):
        return "1"
    if isinstance(pred, Comparison):
        left = _compile_term(pred.left, params)
        right = _compile_term(pred.right, params)
        op = {"=": "IS", "!=": "IS NOT"}.get(pred.op, pred.op)
        return f"({left} {op} {right})"
    if isinstance(pred, And):
        return f"({compile_predicate(pred.left, params)} AND {compile_predicate(pred.right, params)})"
    if isinstance(pred, Or):
        return f"({compile_predicate(pred.left, params)} OR {compile_predicate(pred.right, params)})"
    if isinstance(pred, Not):
        return f"(NOT {compile_predicate(pred.child, params)})"
    raise EvaluationError(f"cannot compile predicate node {type(pred).__name__} to SQL")


def _compile_term(term: Term, params: List[Any]) -> str:
    if isinstance(term, Attr):
        return _quote(term.name)
    if isinstance(term, Const):
        params.append(term.value)
        return "?"
    if isinstance(term, Arith):
        if term.op == "^":
            return _compile_power(term, params)
        left = _compile_term(term.left, params)
        right = _compile_term(term.right, params)
        return f"({left} {term.op} {right})"
    raise EvaluationError(f"cannot compile term node {type(term).__name__} to SQL")


def _compile_power(term: Arith, params: List[Any]) -> str:
    if not isinstance(term.right, Const):
        raise EvaluationError("SQL compilation supports ^ only with a constant exponent")
    exponent = term.right.value
    if not isinstance(exponent, int) or exponent < 0 or exponent > _MAX_UNROLLED_EXPONENT:
        raise EvaluationError(
            f"SQL compilation supports integer exponents in [0, {_MAX_UNROLLED_EXPONENT}], got {exponent!r}"
        )
    if exponent == 0:
        return "1"
    base = _compile_term(term.left, params)
    return "(" + " * ".join([base] * exponent) + ")"


def _rewrite_term(term: Term, mapping: Mapping[str, str]) -> Term:
    if isinstance(term, Attr):
        try:
            return Attr(mapping[term.name])
        except KeyError as exc:
            raise EvaluationError(
                f"attribute {term.name!r} is not visible at this point in the chain"
            ) from exc
    if isinstance(term, Const):
        return term
    if isinstance(term, Arith):
        return Arith(_rewrite_term(term.left, mapping), term.op, _rewrite_term(term.right, mapping))
    raise EvaluationError(f"cannot rewrite term node {type(term).__name__}")


def _rewrite_predicate(pred: Predicate, mapping: Mapping[str, str]) -> Predicate:
    """Substitute every attribute reference with its base-table column."""
    if isinstance(pred, TruePredicate):
        return pred
    if isinstance(pred, Comparison):
        return Comparison(
            _rewrite_term(pred.left, mapping), pred.op, _rewrite_term(pred.right, mapping)
        )
    if isinstance(pred, And):
        return And(_rewrite_predicate(pred.left, mapping), _rewrite_predicate(pred.right, mapping))
    if isinstance(pred, Or):
        return Or(_rewrite_predicate(pred.left, mapping), _rewrite_predicate(pred.right, mapping))
    if isinstance(pred, Not):
        return Not(_rewrite_predicate(pred.child, mapping))
    raise EvaluationError(f"cannot rewrite predicate node {type(pred).__name__}")


def compile_chain_select(
    expr: Expression, schemas: Mapping[str, RelationSchema]
) -> Tuple[str, List[Any]]:
    """Compile a select/project/rename chain to one flat ``SELECT``.

    :func:`compile_expression` nests a subquery per algebra node, which
    keeps the translation obviously correct but hides the base table from
    SQLite's planner behind a wall of derived tables.  Poll predicates and
    compiled delta rewrites are overwhelmingly *chains* — selects, projects
    and renames stacked on a single scan — and for those this emits

        ``SELECT base_col AS out_name, ... FROM "base" WHERE p1 AND p2 ...``

    with every predicate rewritten onto base-table columns, so the WHERE
    clause sits directly on the stored table and key lookups hit the
    automatic indexes SQLite builds for PRIMARY KEY / UNIQUE constraints
    (observable via ``EXPLAIN QUERY PLAN``).

    Raises :class:`~repro.errors.EvaluationError` for any shape it cannot
    flatten (joins, unions, differences, a deduplicating project below a
    later project); callers fall back to :func:`compile_expression`.
    """
    steps = []
    node = expr
    while not isinstance(node, Scan):
        if isinstance(node, Select):
            steps.append(("select", node.predicate))
            node = node.child
        elif isinstance(node, Project):
            steps.append(("project", node))
            node = node.child
        elif isinstance(node, Rename):
            steps.append(("rename", node.mapping_dict))
            node = node.child
        else:
            raise EvaluationError(
                f"cannot flatten expression node {type(node).__name__} into a chain select"
            )
    if node.name not in schemas:
        raise EvaluationError(f"unknown base relation {node.name!r}")
    steps.reverse()  # innermost-first

    # Walk the chain tracking visible-name -> base-column; rewrite every
    # selection predicate into base columns as it is encountered.
    mapping = {a: a for a in schemas[node.name].attribute_names}
    predicates: List[Predicate] = []
    distinct = False
    for kind, payload in steps:
        if kind == "select":
            rewritten = _rewrite_predicate(payload, mapping)
            if not isinstance(rewritten, TruePredicate):
                predicates.append(rewritten)
        elif kind == "project":
            if distinct:
                # A projection after a dedup can re-introduce duplicates the
                # flat DISTINCT would erase; only the nested form is safe.
                raise EvaluationError("cannot flatten a projection applied after a dedup")
            mapping = {a: mapping[a] for a in payload.attrs}
            distinct = payload.dedup
        else:  # rename
            mapping = {payload.get(name, name): base for name, base in mapping.items()}

    out_names = expr.infer_schema(schemas, "q").attribute_names
    params: List[Any] = []
    cols = ", ".join(
        _quote(mapping[n]) if mapping[n] == n else f"{_quote(mapping[n])} AS {_quote(n)}"
        for n in out_names
    )
    sql = f"SELECT {'DISTINCT ' if distinct else ''}{cols} FROM {_quote(node.name)}"
    if predicates:
        sql += " WHERE " + " AND ".join(compile_predicate(p, params) for p in predicates)
    return sql, params


def compile_expression(
    expr: Expression, schemas: Mapping[str, RelationSchema]
) -> Tuple[str, List[Any]]:
    """Compile an expression to ``(sql, params)``.

    ``schemas`` maps base-relation names to their schemas (needed to emit
    explicit column lists, which keeps column order deterministic through
    unions and joins).
    """
    params: List[Any] = []
    sql = _compile(expr, schemas, params)
    return sql, params


def _columns(expr: Expression, schemas: Mapping[str, RelationSchema]) -> List[str]:
    return list(expr.infer_schema(schemas, "q").attribute_names)


def _compile(expr: Expression, schemas: Mapping[str, RelationSchema], params: List[Any]) -> str:
    if isinstance(expr, Scan):
        cols = ", ".join(_quote(c) for c in schemas[expr.name].attribute_names)
        return f"SELECT {cols} FROM {_quote(expr.name)}"
    if isinstance(expr, Select):
        child = _compile(expr.child, schemas, params)
        cond = compile_predicate(expr.predicate, params)
        return f"SELECT * FROM ({child}) WHERE {cond}"
    if isinstance(expr, Project):
        child = _compile(expr.child, schemas, params)
        cols = ", ".join(_quote(c) for c in expr.attrs)
        distinct = "DISTINCT " if expr.dedup else ""
        return f"SELECT {distinct}{cols} FROM ({child})"
    if isinstance(expr, Join):
        # Compile operands first so parameter order matches text order.
        left_sql = _compile(expr.left, schemas, params)
        cols = ", ".join(_quote(c) for c in _columns(expr, schemas))
        if expr.condition is None:
            right_sql = _compile(expr.right, schemas, params)
            return (
                f"SELECT {cols} FROM ({left_sql}) AS _l NATURAL JOIN ({right_sql}) AS _r"
            )
        right_sql = _compile(expr.right, schemas, params)
        cond = compile_predicate(expr.condition, params)
        return f"SELECT {cols} FROM ({left_sql}) AS _l JOIN ({right_sql}) AS _r ON {cond}"
    if isinstance(expr, Union):
        cols = ", ".join(_quote(c) for c in _columns(expr, schemas))
        left_sql = _compile(expr.left, schemas, params)
        right_sql = _compile(expr.right, schemas, params)
        return (
            f"SELECT {cols} FROM ({left_sql}) UNION ALL SELECT {cols} FROM ({right_sql})"
        )
    if isinstance(expr, Difference):
        cols = ", ".join(_quote(c) for c in _columns(expr, schemas))
        left_sql = _compile(expr.left, schemas, params)
        right_sql = _compile(expr.right, schemas, params)
        return f"SELECT {cols} FROM ({left_sql}) EXCEPT SELECT {cols} FROM ({right_sql})"
    if isinstance(expr, Rename):
        child = _compile(expr.child, schemas, params)
        mapping = expr.mapping_dict
        child_cols = _columns(expr.child, schemas)
        cols = ", ".join(
            f"{_quote(c)} AS {_quote(mapping[c])}" if c in mapping else _quote(c)
            for c in child_cols
        )
        return f"SELECT {cols} FROM ({child})"
    raise EvaluationError(f"cannot compile expression node {type(expr).__name__} to SQL")
