"""Unit tests for the SQLite-backed source and the SQL compiler."""

import pytest

from repro.errors import EvaluationError, SourceError
from repro.relalg import (
    Attribute,
    RelationSchema,
    eq,
    ge,
    lt,
    make_schema,
    parse_expression,
    parse_predicate,
    row,
    scan,
)
from repro.sources import MemorySource, SQLiteSource, compile_expression

R = RelationSchema(
    "R",
    (Attribute("r1", "int"), Attribute("r2", "int"), Attribute("r3", "str")),
    key=("r1",),
)
S = make_schema("S", ["s1", "s2"], key=["s1"])


def make_source():
    return SQLiteSource(
        "sql1",
        [R, S],
        initial={"R": [(1, 10, "x"), (2, 20, "y")], "S": [(10, 5), (20, 99)]},
    )


def test_snapshot_roundtrip():
    src = make_source()
    rel = src.relation("R")
    assert rel.contains(row(r1=1, r2=10, r3="x"))
    assert rel.cardinality() == 2


def test_insert_delete_through_sql():
    src = make_source()
    src.insert("R", r1=3, r2=30, r3="z")
    assert src.relation("R").contains(row(r1=3, r2=30, r3="z"))
    src.delete("R", r1=3, r2=30, r3="z")
    assert src.relation("R").cardinality() == 2


def test_redundant_insert_rejected_by_validation():
    src = make_source()
    with pytest.raises(SourceError):
        src.insert("R", r1=1, r2=10, r3="x")


def test_select_project_query():
    src = make_source()
    out = src.query(scan("R").select(lt("r2", 15)).project(["r1"]))
    assert out.to_sorted_list() == [((1,), 1)]


def test_join_query():
    src = make_source()
    expr = scan("R").join(scan("S"), eq("r2", "s1")).project(["r1", "s2"])
    out = src.query(expr)
    assert out.to_sorted_list() == [((1, 5), 1), ((2, 99), 1)]


def test_union_and_difference_query():
    src = make_source()
    u = src.query(
        parse_expression("project[r1](R) union project[r1](R)")
    )
    assert u.to_sorted_list() == [((1,), 2), ((2,), 2)]
    d = src.query(
        parse_expression("project[r1](R) minus project[r1](rename[s1 = r1](select[s2 < 50](S)))")
    )
    assert not d.is_bag
    assert d.to_sorted_list() == [((1,), 1), ((2,), 1)]


def test_dedup_projection_distinct():
    src = SQLiteSource("s2", [S], initial={"S": [(1, 7), (2, 7)]})
    out = src.query(parse_expression("dproject[s2](S)"))
    assert out.to_sorted_list() == [((7,), 1)]


def test_rename_query():
    src = make_source()
    out = src.query(parse_expression("project[k](rename[r1 = k](R))"))
    assert out.to_sorted_list() == [((1,), 1), ((2,), 1)]


def test_arithmetic_power_unrolled():
    src = make_source()
    out = src.query(scan("R").select(parse_predicate("r1 ^ 2 + r2 < 15")).project(["r1"]))
    # r1=1: 1+10=11 < 15 ok; r1=2: 4+20=24 no
    assert out.to_sorted_list() == [((1,), 1)]


def test_power_restrictions():
    with pytest.raises(EvaluationError):
        compile_expression(
            scan("R").select(parse_predicate("r1 ^ r2 < 15")), {"R": R}
        )
    with pytest.raises(EvaluationError):
        compile_expression(
            scan("R").select(parse_predicate("r1 ^ 100 < 15")), {"R": R}
        )


def test_string_parameters_not_interpolated():
    src = make_source()
    from repro.relalg import const

    out = src.query(scan("R").select(eq("r3", const("x' OR '1'='1"))).project(["r1"]))
    assert out.is_empty()


def test_sqlite_agrees_with_memory_source_on_same_data():
    data = {"R": [(1, 10, "x"), (2, 20, "y")], "S": [(10, 5), (20, 99)]}
    sql_src = SQLiteSource("a", [R, S], initial=data)
    mem_src = MemorySource("b", [R, S], initial=data)
    queries = [
        "project[r1, s2](select[r2 = s1 and s2 < 50](R join[true] S))",
        "project[r1](R) minus project[r1](rename[s1 = r1](S))",
        "project[r1](R) union project[r1](rename[s1 = r1](select[s2 < 50](S)))",
        "dproject[r3](R)",
    ]
    for q in queries:
        expr = parse_expression(q)
        assert sql_src.query(expr) == mem_src.query(expr), q


def test_query_unknown_relation():
    src = make_source()
    with pytest.raises(SourceError):
        src.query(scan("NOPE"))


def test_announcements_work_through_sql_source():
    src = make_source()
    src.insert("S", s1=33, s2=3)
    ann = src.take_announcement()
    assert ann.count("S", row(s1=33, s2=3)) == 1


def test_close():
    src = make_source()
    src.close()
