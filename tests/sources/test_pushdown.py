"""SQLite pushdown: flat chain compilation, index use, and fallback.

Three contracts:

* ``compile_chain_select`` flattens select/project/rename chains into a
  single ``SELECT`` whose WHERE clause sits on the base table — validated
  with ``EXPLAIN QUERY PLAN`` showing the automatic PRIMARY KEY / UNIQUE
  indexes serving key predicates (a nested-subquery compilation hides the
  table behind derived tables and falls back to scans);
* :meth:`SQLiteSource.poll_and_query` answers a whole poll round inside
  the database — announcement, cursor, and every answer taken atomically —
  and :class:`DirectLink` routes to it, with answers identical to the
  Python evaluator's;
* expressions SQL cannot express (``^`` with a non-constant exponent)
  fall back to Python evaluation per-query, counted in
  ``fallback_queries``, without poisoning the rest of the round.
"""

import pytest

from repro.core.links import DirectLink
from repro.errors import EvaluationError
from repro.relalg import Evaluator, make_schema, parse_expression
from repro.sources import MemorySource, SQLiteSource
from repro.sources.sql_compile import compile_chain_select, compile_expression

C = make_schema("C", ["c1", "c2"], key=["c1"])
D = make_schema("D", ["d1", "d2"], key=["d1"])

C_DATA = [(i, i % 7) for i in range(60)]
D_DATA = [(i, i % 5) for i in range(40)]


def make_source():
    return SQLiteSource("db", [C, D], initial={"C": C_DATA, "D": D_DATA})


# ----------------------------------------------------------------------
# Flat chain compilation
# ----------------------------------------------------------------------
def test_chain_select_flattens_to_base_table():
    expr = parse_expression("project[k](rename[c1 = k](select[c1 = 7](C)))")
    sql, params = compile_chain_select(expr, {"C": C, "D": D})
    assert sql == 'SELECT "c1" AS "k" FROM "C" WHERE ("c1" IS ?)'
    assert params == [7]


def test_chain_select_stacks_predicates_in_base_columns():
    expr = parse_expression("select[x < 3](rename[c2 = x](select[c1 > 10](C)))")
    sql, params = compile_chain_select(expr, {"C": C, "D": D})
    # Both predicates rewritten to base columns, ANDed on one scan.
    assert sql.count("FROM") == 1
    assert '"c1" > ?' in sql and '"c2" < ?' in sql
    assert params == [10, 3]


def test_chain_select_supports_trailing_dedup():
    expr = parse_expression("dproject[c2](select[c1 < 20](C))")
    sql, _ = compile_chain_select(expr, {"C": C, "D": D})
    assert sql.startswith('SELECT DISTINCT "c2" FROM "C"')


def test_chain_select_rejects_projection_after_dedup():
    expr = parse_expression("project[c2](dproject[c1, c2](C))")
    with pytest.raises(EvaluationError):
        compile_chain_select(expr, {"C": C, "D": D})


def test_chain_select_rejects_joins():
    expr = parse_expression("C join[c1 = d1] D")
    with pytest.raises(EvaluationError):
        compile_chain_select(expr, {"C": C, "D": D})
    # ... which the source transparently routes through the nested compiler.
    source = make_source()
    try:
        assert source.query(expr).cardinality() > 0
    finally:
        source.close()


@pytest.mark.parametrize(
    "text",
    [
        "select[c1 = 7](C)",
        "project[c2](select[c1 < 9](C))",
        "select[x < 3](rename[c2 = x](select[c1 > 10](C)))",
        "dproject[c2](select[c1 < 20](C))",
        "project[k](rename[c1 = k](C))",
    ],
)
def test_chain_and_nested_compilations_agree(text):
    expr = parse_expression(text)
    source = make_source()
    try:
        flat_sql, flat_params = compile_chain_select(expr, source.schemas)
        nested_sql, nested_params = compile_expression(expr, source.schemas)
        cur = source._conn.cursor()
        flat = sorted(cur.execute(flat_sql, flat_params).fetchall())
        nested = sorted(cur.execute(nested_sql, nested_params).fetchall())
        assert flat == nested, text
    finally:
        source.close()


# ----------------------------------------------------------------------
# EXPLAIN QUERY PLAN: pushed predicates hit the automatic indexes
# ----------------------------------------------------------------------
def test_key_predicate_uses_primary_key_index():
    source = make_source()
    try:
        plan = source.explain_query_plan(parse_expression("select[c1 = 7](C)"))
        detail = " ".join(plan)
        assert "SEARCH" in detail
        assert "PRIMARY KEY" in detail or "USING INDEX" in detail
        assert "SCAN" not in detail
    finally:
        source.close()


def test_key_predicate_under_rename_and_project_still_indexed():
    source = make_source()
    try:
        expr = parse_expression("project[k](rename[c1 = k](select[c1 = 7](C)))")
        detail = " ".join(source.explain_query_plan(expr))
        assert "SEARCH" in detail and "SCAN" not in detail
    finally:
        source.close()


def test_full_row_predicate_uses_unique_autoindex():
    source = make_source()
    try:
        expr = parse_expression("select[c1 = 7 and c2 = 0](C)")
        detail = " ".join(source.explain_query_plan(expr))
        assert "SEARCH" in detail and "SCAN" not in detail
    finally:
        source.close()


def test_non_key_predicate_scans():
    # Sanity check on the oracle itself: a predicate no index covers
    # really does report a table scan, so the SEARCH assertions above
    # are discriminating.
    source = make_source()
    try:
        detail = " ".join(source.explain_query_plan(parse_expression("select[c2 = 3](C)")))
        assert "SCAN" in detail
    finally:
        source.close()


# ----------------------------------------------------------------------
# poll_and_query and link routing
# ----------------------------------------------------------------------
def test_poll_and_query_is_atomic_and_correct():
    source = make_source()
    try:
        source.insert("C", c1=100, c2=1)
        queries = {
            "q1": parse_expression("select[c1 = 7](C)"),
            "q2": parse_expression("project[d2](select[d1 < 9](rename[c1 = d1, c2 = d2](C)))"),
        }
        announcement, cursor, answers = source.poll_and_query(queries)
        assert announcement is not None and cursor == 1
        oracle = Evaluator(source.state())
        for name, expr in queries.items():
            assert answers[name].to_sorted_list() == oracle.evaluate(expr, name).to_sorted_list()
        assert source.pushdown_queries == 2
        assert source.fallback_queries == 0
        # Announcement was consumed by the round.
        assert not source.has_pending_announcement()
    finally:
        source.close()


def test_uncompilable_query_falls_back_per_query():
    source = make_source()
    try:
        queries = {
            "good": parse_expression("select[c1 = 7](C)"),
            "bad": parse_expression("select[c1 ^ c2 < 50](C)"),  # non-const exponent
        }
        _, _, answers = source.poll_and_query(queries)
        oracle = Evaluator(source.state())
        for name, expr in queries.items():
            assert answers[name].to_sorted_list() == oracle.evaluate(expr, name).to_sorted_list()
        assert source.pushdown_queries == 1
        assert source.fallback_queries == 1
        assert source.query_count == 2
    finally:
        source.close()


def test_direct_link_routes_through_pushdown():
    source = make_source()
    try:
        delivered = []
        link = DirectLink(
            source, announcement_sink=lambda name, delta, cursor: delivered.append((name, cursor))
        )
        source.insert("C", c1=200, c2=2)
        answers = link.poll_many({"q": parse_expression("select[c1 = 7](C)")})
        assert answers["q"].to_sorted_list() == [((7, 0), 1)]
        assert delivered == [("db", 1)]  # flush-before-answer held
        assert source.pushdown_queries == 1
        assert source.query_count == 1  # counted by the source, not the link
        assert link.poll_count == 1
        assert link.polled_rows == 1
    finally:
        source.close()


def test_pushdown_answers_match_memory_source_round():
    memory = MemorySource("m", [C, D], initial={"C": C_DATA, "D": D_DATA})
    sqlite = make_source()
    try:
        queries = {
            "chain": parse_expression("project[c2](select[c1 < 9](C))"),
            "join": parse_expression("C join[c1 = d1] D"),
            "diff": parse_expression(
                "dproject[c2](C) minus dproject[c2](rename[d1 = c1, d2 = c2](D))"
            ),
        }
        _, _, pushed = sqlite.poll_and_query(queries)
        polled = DirectLink(memory).poll_many(queries)
        for name in queries:
            assert pushed[name].to_sorted_list() == polled[name].to_sorted_list(), name
    finally:
        sqlite.close()
