"""Unit tests for expressions + evaluator, including the paper's Figure 1 view."""

import pytest

from repro.errors import EvaluationError, SchemaError
from repro.relalg import (
    BagRelation,
    Difference,
    EvalCounters,
    Evaluator,
    Join,
    Project,
    Rename,
    Scan,
    Select,
    SetRelation,
    Union,
    eq,
    evaluate,
    gt,
    lt,
    make_schema,
    parse_expression,
    row,
    scan,
)

R = make_schema("R", ["r1", "r2", "r3", "r4"], key=["r1"])
S = make_schema("S", ["s1", "s2", "s3"], key=["s1"])


def sample_catalog():
    r = SetRelation.from_values(
        R,
        [
            (1, 10, "x", 100),
            (2, 20, "y", 100),
            (3, 10, "z", 999),  # filtered out by r4=100
        ],
    )
    s = SetRelation.from_values(
        S,
        [
            (10, "a", 5),
            (20, "b", 99),  # filtered out by s3<50
            (30, "c", 7),
        ],
    )
    return {"R": r, "S": s}


def figure1_view():
    """T = π_{r1,s1,s2}(σ_{r4=100} R ⋈_{r2=s1} σ_{s3<50} S)."""
    return Project(
        Join(
            Select(Scan("R"), eq("r4", 100)),
            Select(Scan("S"), lt("s3", 50)),
            eq("r2", "s1"),
        ),
        ("r1", "s1", "s2"),
    )


def test_figure1_view_evaluation():
    result = evaluate(figure1_view(), sample_catalog(), "T")
    assert result.to_sorted_list() == [((1, 10, "a"), 1)]
    assert result.schema.attribute_names == ("r1", "s1", "s2")


def test_select_and_project():
    cat = sample_catalog()
    out = evaluate(scan("R").select(gt("r1", 1)).project(["r1"]), cat)
    assert out.to_sorted_list() == [((2,), 1), ((3,), 1)]


def test_bag_projection_keeps_duplicates():
    cat = sample_catalog()
    out = evaluate(scan("R").project(["r4"]), cat)
    assert out.to_sorted_list() == [((100,), 2), ((999,), 1)]


def test_dedup_projection_is_set():
    cat = sample_catalog()
    out = evaluate(scan("R").project(["r4"], dedup=True), cat)
    assert out.to_sorted_list() == [((100,), 1), ((999,), 1)]
    assert not out.is_bag


def test_theta_join_cross_product_counts():
    a = make_schema("A", ["x"])
    b = make_schema("B", ["y"])
    cat = {
        "A": BagRelation.from_values(a, [(1,), (1,)]),
        "B": BagRelation.from_values(b, [(2,)]),
    }
    out = evaluate(scan("A").join(scan("B"), lt("x", "y")), cat)
    assert out.to_sorted_list() == [((1, 2), 2)]


def test_natural_join():
    a = make_schema("A", ["k", "x"])
    b = make_schema("B", ["k", "y"])
    cat = {
        "A": SetRelation.from_values(a, [(1, "p"), (2, "q")]),
        "B": SetRelation.from_values(b, [(1, "u"), (3, "v")]),
    }
    out = evaluate(scan("A").join(scan("B")), cat)
    assert out.to_sorted_list() == [((1, "p", "u"), 1)]


def test_natural_join_without_shared_attrs_raises():
    a = make_schema("A", ["x"])
    b = make_schema("B", ["y"])
    cat = {
        "A": SetRelation.from_values(a, [(1,)]),
        "B": SetRelation.from_values(b, [(2,)]),
    }
    with pytest.raises(SchemaError):
        evaluate(scan("A").join(scan("B")), cat)


def test_union_adds_counts():
    a = make_schema("A", ["x"])
    b = make_schema("B", ["x"])
    cat = {
        "A": BagRelation.from_values(a, [(1,), (2,)]),
        "B": BagRelation.from_values(b, [(1,)]),
    }
    out = evaluate(scan("A").union(scan("B")), cat)
    assert out.to_sorted_list() == [((1,), 2), ((2,), 1)]


def test_difference_is_set_semantics():
    a = make_schema("A", ["x"])
    b = make_schema("B", ["x"])
    cat = {
        "A": BagRelation.from_values(a, [(1,), (1,), (2,)]),
        "B": BagRelation.from_values(b, [(2,), (3,)]),
    }
    out = evaluate(scan("A").minus(scan("B")), cat)
    assert not out.is_bag
    assert out.to_sorted_list() == [((1,), 1)]


def test_rename_evaluation():
    cat = sample_catalog()
    out = evaluate(scan("S").rename({"s1": "k"}).project(["k"]), cat)
    assert out.schema.attribute_names == ("k",)
    assert out.cardinality() == 3


def test_unknown_relation_raises():
    with pytest.raises((EvaluationError, SchemaError)):
        evaluate(scan("NOPE"), sample_catalog())


def test_counters_track_work():
    counters = EvalCounters()
    evaluate(figure1_view(), sample_catalog(), counters=counters)
    assert counters.rows_scanned == 6
    assert counters.joins_executed == 1
    assert counters.hash_probes > 0


def test_counters_merge():
    a = EvalCounters(rows_scanned=1, rows_produced=2, joins_executed=3, hash_probes=4)
    b = EvalCounters(rows_scanned=10, rows_produced=20, joins_executed=30, hash_probes=40)
    a.merge(b)
    assert (a.rows_scanned, a.rows_produced, a.joins_executed, a.hash_probes) == (11, 22, 33, 44)


def test_join_schema_disjointness_enforced():
    a = make_schema("A", ["x"])
    b = make_schema("B", ["x"])
    cat = {
        "A": SetRelation.from_values(a, [(1,)]),
        "B": SetRelation.from_values(b, [(2,)]),
    }
    with pytest.raises(SchemaError):
        evaluate(Join(scan("A"), scan("B"), eq("x", "x")), cat)


def _join_outcome(indexed):
    """The answer of a chain-selection join, or the error it raises."""
    left = SetRelation.from_values(make_schema("L", ["k", "x"]), [(1, None), (2, 3)])
    if indexed:
        left.ensure_index(("k",))
    right = SetRelation.from_values(make_schema("R", ["k2", "y"]), [(2, "a")])
    expr = parse_expression("project[k, y](select[x < 5](L) join[k = k2] R)")
    try:
        return Evaluator({"L": left, "R": right}).evaluate(expr).to_sorted_list()
    except Exception as exc:
        return type(exc).__name__


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2(a): an index probe runs the chain's selection only on "
    "the probed rows, so `None < 5` on row (1, None) raises only without the index; "
    "one value semantics for None makes both paths agree",
)
def test_indexed_probe_and_scan_agree_on_selection_over_none():
    assert _join_outcome(indexed=True) == _join_outcome(indexed=False)
