"""Ordered theta joins ≡ the filtered cross product.

A pure theta join whose condition starts with a separable comparison
``f(L) op g(R)`` runs by bisect when one operand carries an ordered index
on its term (``relalg/evaluator.py``).  The reference here shares no
compiled code with that path: ``itertools.product`` over the operands and
the tree walker ``Predicate.evaluate`` on each merged pair.  Over bag and
set operands holding ints, floats (ties across the two types included),
``None``, strings, NaN and infinity — with terms that raise — the ordered
path returns the same bag, or raises the same exception class when the
cross product raises, for all four operators, both orientations of the
comparison, the indexed side on the left and on the right, and with or
without a trailing conjunct.
"""

from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relalg import (
    Arith,
    Attr,
    BagRelation,
    Comparison,
    Const,
    EvalCounters,
    Evaluator,
    Join,
    Scan,
    SetRelation,
    conjoin,
    make_schema,
    parse_predicate,
    plan_join,
)
from repro.relalg.predicates import FLIP
from repro.relalg.tuples import Row

L = make_schema("L", ["a", "x"])
R = make_schema("R", ["b", "y"])
SCHEMAS = {"L": L, "R": R}

NAN, INF = float("nan"), float("inf")
finite = st.one_of(st.integers(-3, 3), st.sampled_from([-1.5, 0.5, 2.0, 2.5]))
# Mostly numbers, so the bisect has work; the rest exercise the unordered
# bucket and non-finite bounds.  Every error these can raise is a TypeError.
mixed = st.one_of(finite, finite, finite, st.sampled_from([None, "s", NAN, INF]))

LEFT_TERMS = [Attr("x"), Arith(Arith(Attr("x"), "^", Const(2)), "+", Attr("a")), Arith(Attr("x"), "-", Attr("a"))]
RIGHT_TERMS = [Attr("y"), Arith(Attr("y"), "^", Const(2)), Arith(Attr("y"), "*", Const(2.0))]
RESTS = [None, "a != b", "a + b > 0", "b <= 1"]


def operands(values, bag):
    rows = st.lists(st.tuples(values, values), max_size=8)
    return st.tuples(rows, rows, st.just(bag))


def relation(schema, value_rows, bag):
    rows = [Row({name: v for name, v in zip(schema.attribute_names, vals)}) for vals in value_rows]
    if bag:
        return BagRelation(schema, Counter(rows))
    return SetRelation(schema, set(rows))


def cross_product(left, right, condition):
    """The reference: every pair, tested by the tree walker on the merged row."""
    out = Counter()
    for (lr, ln), (rr, rn) in product(left.items(), right.items()):
        merged = lr.merge(rr)
        if condition.evaluate(merged):
            out[merged] += ln * rn
    return out


def outcome(run):
    try:
        return "returned", run()
    except Exception as exc:  # the exception *class* is the contract
        return "raised", type(exc)


def ordered_join(left, right, condition, indexed):
    """Evaluate through the ordered probe on the ``indexed`` operand; also
    checks that that path ran (drive side scanned, one probe per drive row)."""
    expr = Join(Scan("L"), Scan("R"), condition)
    plan = plan_join(expr, SCHEMAS)
    spec = plan.left_range if indexed == "left" else plan.right_range
    assert spec is not None, "the planner must recognise the separable conjunct"
    catalog = {"L": left, "R": right}
    catalog[spec.base].ensure_index(spec.index_keys)
    drive = right if indexed == "left" else left
    counters = EvalCounters()
    try:
        return Counter(dict(Evaluator(catalog, counters=counters).evaluate(expr).items()))
    finally:
        assert counters.rows_scanned == drive.cardinality()
        assert counters.index_probes <= drive.distinct_size()


def condition_for(f, op, g, orientation, rest):
    first = Comparison(f, op, g) if orientation == "lr" else Comparison(g, FLIP[op], f)
    return first if rest is None else conjoin(first, parse_predicate(rest))


@given(
    st.one_of(operands(mixed, True), operands(mixed, False)),
    st.sampled_from(LEFT_TERMS),
    st.sampled_from(["<", "<=", ">", ">="]),
    st.sampled_from(RIGHT_TERMS),
    st.sampled_from(["lr", "rl"]),
    st.sampled_from(["left", "right"]),
    st.sampled_from(RESTS),
)
@settings(max_examples=600, deadline=None)
def test_ordered_path_matches_cross_product(data, f, op, g, orientation, indexed, rest):
    left_rows, right_rows, bag = data
    left, right = relation(L, left_rows, bag), relation(R, right_rows, bag)
    condition = condition_for(f, op, g, orientation, rest)
    expected = outcome(lambda: cross_product(left, right, condition))
    got = outcome(lambda: ordered_join(left, right, condition, indexed))
    assert got == expected, str(condition)


@given(
    operands(st.integers(-2, 2), True),
    st.sampled_from(["<", "<=", ">", ">="]),
    st.sampled_from(["left", "right"]),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_a_raising_term_raises_as_the_cross_product_does(data, op, indexed, raise_on_left):
    """``x / a`` (or ``y / b``) raises ZeroDivisionError on a zero divisor:
    such a row goes to the unordered bucket (indexed side) or is pair-tested
    against every row (drive side), so the join raises exactly when some pair
    does."""
    left_rows, right_rows, bag = data
    left, right = relation(L, left_rows, bag), relation(R, right_rows, bag)
    f, g = Arith(Attr("x"), "/", Attr("a")), Attr("y")
    if not raise_on_left:
        f, g = Attr("x"), Arith(Attr("y"), "/", Attr("b"))
    condition = Comparison(f, op, g)
    expected = outcome(lambda: cross_product(left, right, condition))
    assert outcome(lambda: ordered_join(left, right, condition, indexed)) == expected


def test_ties_across_int_and_float_and_every_operator():
    """Keys 2 and 2.0 share a bucket; each operator's boundary is exact."""
    left = BagRelation.from_values(L, [(0, 2), (1, 2.0), (2, 1), (3, 3), (3, 3)])
    right = BagRelation.from_values(R, [(0, 2), (1, 2.0), (2, 2.5)])
    for op in ("<", "<=", ">", ">="):
        for indexed in ("left", "right"):
            condition = Comparison(Attr("x"), op, Attr("y"))
            got = ordered_join(left.copy(), right.copy(), condition, indexed)  # copies: unindexed
            assert got == cross_product(left, right, condition)


def test_unindexed_relations_keep_the_cross_product():
    """Without an ordered index the join is still the filtered cross product
    (the path every ad-hoc evaluation and the recompute oracle run)."""
    left = BagRelation.from_values(L, [(a, a) for a in range(5)])
    right = BagRelation.from_values(R, [(b, b) for b in range(4)])
    condition = Comparison(Attr("x"), "<", Attr("y"))
    counters = EvalCounters()
    result = Evaluator({"L": left, "R": right}, counters=counters).evaluate(
        Join(Scan("L"), Scan("R"), condition)
    )
    assert Counter(dict(result.items())) == cross_product(left, right, condition)
    assert counters.index_probes == 0
    assert counters.rows_scanned == 9


@pytest.mark.parametrize(
    "text, separable",
    [
        ("x < y", True),
        ("y >= x ^ 2 + a", True),
        ("x < y and a = 1", True),
        ("a = 1 and x < y", False),  # the first conjunct is not a comparison across operands
        ("x = y", False),  # an equality is a hash key, not a range
        ("x + y < 3", False),  # one term reads both operands
        ("x < 3", False),  # a selection, not a join condition
        ("x < y or a < b", False),
    ],
)
def test_planner_recognises_only_separable_first_conjuncts(text, separable):
    plan = plan_join(Join(Scan("L"), Scan("R"), parse_predicate(text)), SCHEMAS)
    assert (plan.left_range is not None) is separable
    assert (plan.right_range is not None) is separable


def test_non_finite_keys_are_unordered():
    rel = BagRelation.from_values(L, [(0, 1), (1, NAN), (2, INF), (3, None), (4, "s"), (5, True)])
    spec = plan_join(Join(Scan("L"), Scan("R"), parse_predicate("x < y")), SCHEMAS).left_range
    rel.ensure_index(spec.index_keys)
    assert rel.index_order(spec.index_keys) == [1]
    assert {r["a"] for r in rel.index_buckets(spec.index_keys)[None]} == {1, 2, 3, 4}
    # A bool orders as the number it equals: Row(x=True) == Row(x=1), so the
    # two must share a key (see test_index_maintenance).
    assert {r["a"] for r in rel.index_buckets(spec.index_keys)[1]} == {0, 5}
