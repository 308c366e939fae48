"""SQLite-backed source database.

Demonstrates the paper's claim that a virtual-contributor's "role can be
played by all kinds of DBMS" — here an actual SQL DBMS.  Relations map to
SQLite tables; transactions run inside SQLite transactions; queries are
compiled to SQL by :mod:`repro.sources.sql_compile` and executed inside the
database, so the mediator's polls genuinely travel through a SQL engine.

Set semantics is enforced with a UNIQUE index over all columns (source
relations are sets in the paper's model); the declared primary key, when
present, is also declared to SQLite.  The same index answers commit
validation: one covering-index search per delta atom, never a table scan.
Rows are matched with ``IS`` rather than ``=`` so a ``NULL``-valued row is
found, deleted and refused as a duplicate like any other (``= NULL``
matches nothing, and UNIQUE treats NULLs as distinct).
"""

from __future__ import annotations

import sqlite3
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.deltas import SetDelta
from repro.errors import EvaluationError, SourceError
from repro.relalg import (
    BagRelation,
    Evaluator,
    Expression,
    Project,
    Relation,
    RelationSchema,
    Row,
    SetRelation,
)
from repro.relalg.expressions import Difference
from repro.sources.base import SourceDatabase
from repro.sources.sql_compile import compile_chain_select, compile_expression

__all__ = ["SQLiteSource"]


def _quote(identifier: str) -> str:
    return '"' + identifier.replace('"', '""') + '"'


_AFFINITY = {"int": "INTEGER", "float": "REAL", "str": "TEXT", "any": ""}


class _RowSQL(NamedTuple):
    """The whole-row statements of one table, parameters in ``names`` order."""

    names: Tuple[str, ...]
    probe: str
    insert: str
    delete: str


class SQLiteSource(SourceDatabase):
    """A source database backed by a SQLite database."""

    #: Links probe this to route whole poll rounds through
    #: :meth:`poll_and_query`, which executes the queries inside the
    #: database instead of snapshotting every relation into Python.
    supports_pushdown = True
    #: ``sqlite3`` connections belong to the thread that opened them.
    thread_affine = True

    def __init__(
        self,
        name: str,
        schemas: Sequence[RelationSchema],
        path: str = ":memory:",
        initial: Optional[Dict[str, Sequence[Tuple[Any, ...]]]] = None,
    ):
        super().__init__(name, schemas)
        self.pushdown_queries = 0
        self.fallback_queries = 0
        self._conn = sqlite3.connect(path)
        self._conn.isolation_level = None  # explicit transaction control
        self._row_sql: Dict[str, _RowSQL] = {}
        self._create_tables()
        if initial:
            for rel_name, value_rows in initial.items():
                self.schema(rel_name)  # unknown relation -> SourceError
                self._bulk_insert(rel_name, value_rows)

    # ------------------------------------------------------------------
    # Table management
    # ------------------------------------------------------------------
    def _create_tables(self) -> None:
        cur = self._conn.cursor()
        for schema in self.schemas.values():
            cols = []
            for a in schema.attributes:
                affinity = _AFFINITY.get(a.dtype, "")
                cols.append(f"{_quote(a.name)} {affinity}".strip())
            constraints = []
            if schema.key:
                key_cols = ", ".join(_quote(k) for k in schema.key)
                constraints.append(f"PRIMARY KEY ({key_cols})")
            all_cols = ", ".join(_quote(a.name) for a in schema.attributes)
            constraints.append(f"UNIQUE ({all_cols})")
            ddl = (
                f"CREATE TABLE {_quote(schema.name)} ("
                + ", ".join(cols + constraints)
                + ")"
            )
            cur.execute(ddl)
            table = _quote(schema.name)
            names = schema.attribute_names
            match = " AND ".join(f"{_quote(n)} IS ?" for n in names)
            placeholders = ", ".join("?" for _ in names)
            self._row_sql[schema.name] = _RowSQL(
                names,
                probe=f"SELECT 1 FROM {table} WHERE {match} LIMIT 1",
                insert=f"INSERT INTO {table} ({all_cols}) VALUES ({placeholders})",
                delete=f"DELETE FROM {table} WHERE {match}",
            )
        self._conn.commit()

    def _bulk_insert(self, rel_name: str, value_rows: Sequence[Tuple[Any, ...]]) -> None:
        cur = self._conn.cursor()
        cur.execute("BEGIN")
        cur.executemany(self._row_sql[rel_name].insert, [tuple(v) for v in value_rows])
        cur.execute("COMMIT")

    # ------------------------------------------------------------------
    # SourceDatabase storage protocol
    # ------------------------------------------------------------------
    def _snapshot(self) -> Dict[str, SetRelation]:
        snap: Dict[str, SetRelation] = {}
        cur = self._conn.cursor()
        for rel_name, schema in self.schemas.items():
            cols = ", ".join(_quote(a.name) for a in schema.attributes)
            cur.execute(f"SELECT {cols} FROM {_quote(rel_name)}")
            names = schema.attribute_names
            snap[rel_name] = SetRelation(
                schema, (Row(dict(zip(names, values))) for values in cur.fetchall())
            )
        return snap

    def _contains(self, relation: str, row: Row) -> bool:
        sql = self._row_sql[relation]
        cur = self._conn.execute(sql.probe, row.values_for(sql.names))
        return cur.fetchone() is not None

    def _apply(self, delta: SetDelta) -> None:
        cur = self._conn.cursor()
        cur.execute("BEGIN")
        try:
            for rel_name in delta.relations():
                sql = self._row_sql[rel_name]
                for r in delta.deletions(rel_name):
                    cur.execute(sql.delete, r.values_for(sql.names))
                    if cur.rowcount != 1:
                        # Storage and the validated delta disagree: refuse
                        # rather than log and announce a delete that did
                        # not happen.
                        raise sqlite3.IntegrityError(
                            f"DELETE from {rel_name} matched {cur.rowcount} rows, "
                            f"expected 1: {dict(r)}"
                        )
                for r in delta.insertions(rel_name):
                    cur.execute(sql.insert, r.values_for(sql.names))
            cur.execute("COMMIT")
        except sqlite3.DatabaseError as exc:
            cur.execute("ROLLBACK")
            raise SourceError(f"SQLite transaction failed on {self.name!r}: {exc}") from exc

    def query(self, expr: Expression, name: str = "answer") -> Relation:
        """Compile to SQL and execute inside SQLite (one transaction)."""
        unknown = expr.relation_names() - set(self.schemas)
        if unknown:
            raise SourceError(
                f"source {self.name!r} cannot answer query over {sorted(unknown)}"
            )
        self.query_count += 1
        return self._execute_pushdown(expr, name)

    def _compile(self, expr: Expression) -> Tuple[str, List[Any]]:
        """Flat chain select when the shape allows it, nested SQL otherwise.

        The flat form keeps predicates on the base table where SQLite's
        automatic PRIMARY KEY / UNIQUE indexes can serve them; anything the
        flattener rejects still compiles through the general nested path.
        Raises :class:`~repro.errors.EvaluationError` only when *neither*
        compiler can express the expression (e.g. ``^`` with a non-constant
        exponent) — the signal for the Python evaluation fallback.
        """
        try:
            return compile_chain_select(expr, self.schemas)
        except EvaluationError:
            return compile_expression(expr, self.schemas)

    def _execute_pushdown(self, expr: Expression, name: str) -> Relation:
        sql, params = self._compile(expr)
        schema = expr.infer_schema(self.schemas, name)
        cur = self._conn.cursor()
        cur.execute(sql, params)
        rows = cur.fetchall()
        names = schema.attribute_names
        if isinstance(expr, Difference) or (isinstance(expr, Project) and expr.dedup):
            return SetRelation(schema, (Row(dict(zip(names, v))) for v in rows))
        return BagRelation.from_rows(schema, (Row(dict(zip(names, v))) for v in rows))

    def poll_and_query(
        self, queries: Mapping[str, Expression]
    ) -> Tuple[Optional[SetDelta], int, Dict[str, Relation]]:
        """One atomic poll round answered *inside* the database.

        The announcement take, the cursor read, and every query execute
        under the source lock as one source transaction — the same
        flush-before-answer contract as
        :meth:`~repro.sources.base.SourceDatabase.poll_transaction_versioned`,
        but without materializing a full Python snapshot of every relation:
        each query is compiled to SQL and runs where the data lives.  A
        query the compiler cannot express (counted in ``fallback_queries``)
        is answered from a lazily-built snapshot of the same state, so the
        answer set is identical either way.
        """
        with self._lock:
            announcement = self.take_announcement()
            cursor = self.txn_count
            answers: Dict[str, Relation] = {}
            snapshot: Optional[Dict[str, SetRelation]] = None
            for name, expr in queries.items():
                unknown = expr.relation_names() - set(self.schemas)
                if unknown:
                    raise SourceError(
                        f"source {self.name!r} cannot answer query over {sorted(unknown)}"
                    )
                self.query_count += 1
                try:
                    answers[name] = self._execute_pushdown(expr, name)
                    self.pushdown_queries += 1
                except EvaluationError:
                    if snapshot is None:
                        snapshot = self._snapshot()
                    answers[name] = Evaluator(snapshot).evaluate(expr, name)
                    self.fallback_queries += 1
            return announcement, cursor, answers

    def explain_query_plan(self, expr: Expression) -> List[str]:
        """SQLite's query plan for ``expr``, one detail string per step.

        Compiles exactly as :meth:`query` would and runs ``EXPLAIN QUERY
        PLAN``; tests use this to assert that pushed-down key predicates
        are served by the automatic indexes (``USING INDEX`` /
        ``USING COVERING INDEX`` / integer primary-key search) rather than
        full table scans.
        """
        sql, params = self._compile(expr)
        cur = self._conn.cursor()
        cur.execute("EXPLAIN QUERY PLAN " + sql, params)
        return [str(row[-1]) for row in cur.fetchall()]

    def close(self) -> None:
        """Close the underlying SQLite connection."""
        self._conn.close()
