"""Range σ through an ordered index ≡ the scan.

A select/project/rename chain whose selection starts with range conjuncts
on one attribute (``a op c``, ``c`` a finite number, ``op`` one of ``<``,
``<=``, ``>``, ``>=``, ``=``) reads only the bisected slice of the
relation's ordered index on that attribute when the relation carries one
(``relalg/evaluator.py``).  The reference is the same chain over an
unindexed copy — the scan.  Over bag and set relations holding ints,
floats (int / float ties included), ``None``, strings, NaN, bools and ±inf,
after random insert/delete histories that the index lives through, the
range path returns the same bag, or raises the same exception class when
the scan raises, for prefix and non-prefix range conjuncts, every operator,
int and float constants, both orientations and projecting / renaming
chains — and the maintained index equals one built from scratch.
"""

from collections import Counter

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
    OrderedKey,
    Project,
    Rename,
    Scan,
    Select,
    SetRelation,
    compile_scan_chain,
    conjoin,
    make_schema,
    parse_predicate,
    row,
)
from repro.relalg.evaluator import ChainBounds

SCHEMA = make_schema("R", ["a", "b", "c"])
SCHEMAS = {"R": SCHEMA}
NAN, INF = float("nan"), float("inf")

finite = st.one_of(st.integers(-3, 3), st.sampled_from([-1.5, 0.5, 1.0, 2.0, 2.5]))
# Mostly numbers, so the bisect has work; the rest land in the unordered
# bucket.  Every error these can raise under MIXED_CONJUNCTS is a TypeError.
mixed = st.one_of(finite, finite, finite, st.sampled_from([None, "s", NAN, True, False, INF, -INF]))
constants = st.sampled_from([-1, 0, 1, 2, 0.5, 1.0, 2.5])
ops = st.sampled_from(["<", "<=", ">", ">=", "="])
FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}


@st.composite
def range_conjunct(draw, name="a"):
    op, value = draw(ops), draw(constants)
    if draw(st.booleans()):
        return Comparison(Attr(name), op, Const(value))
    return Comparison(Const(value), FLIPPED[op], Attr(name))  # c op' a


MIXED_CONJUNCTS = st.one_of(
    range_conjunct(),
    range_conjunct(),
    range_conjunct("b"),
    st.sampled_from([
        parse_predicate("a != c"),  # not a range op
        parse_predicate("a + 0 >= 1"),  # not a bare attribute
        parse_predicate("b + 1 > 0"),
        parse_predicate("a < b"),  # not a constant
        Comparison(Attr("a"), "<", Const(INF)),  # not a finite constant
        Comparison(Attr("a"), ">", Const(NAN)),
        Comparison(Attr("a"), "=", Const(True)),  # a range: True orders as 1
    ]),
)

SHAPES = {
    "select": lambda s: s,
    "project": lambda s: Project(s, ("a", "c")),
    "rename": lambda s: Rename(Project(s, ("b", "a")), {"a": "x"}),
}


def relation(bag, rows):
    rel = BagRelation(SCHEMA) if bag else SetRelation(SCHEMA)
    for values in rows:
        rel_row = row(a=values[0], b=values[1], c=values[2])
        if bag or not rel.contains(rel_row):
            rel.insert(rel_row)
    return rel


def apply_history(rel, bag, history):
    """Inserts and deletes through the relation's own API (which maintains
    its indexes); a set toggles, a bag deletes at most what it holds."""
    for values, n in history:
        r = row(a=values[0], b=values[1], c=values[2])
        if not bag:
            (rel.delete if rel.contains(r) else rel.insert)(r)
        elif n > 0:
            rel.insert(r, n)
        elif n < 0 and rel.count(r):
            rel.delete(r, min(-n, rel.count(r)))


def outcome(run):
    try:
        return "returned", run()
    except Exception as exc:  # the exception *class* is the contract
        return "raised", type(exc)


def evaluated(rel, expr, counters=None):
    evaluator = Evaluator({"R": rel}, counters=counters)
    return Counter(dict(evaluator.evaluate(expr).items())), evaluator.access


def assert_index_fresh(rel, key):
    scratch = rel.copy()
    assert not scratch.has_index(key)
    scratch.ensure_index(key)
    assert rel.index_buckets(key) == scratch.index_buckets(key)
    assert rel.index_order(key) == scratch.index_order(key)


def check_range_path(bag, rows, history, selection, shape):
    rel = relation(bag, rows)
    expr = SHAPES[shape](Select(Scan("R"), selection))
    bounds = compile_scan_chain(expr, SCHEMAS).bounds
    if bounds is not None:
        rel.ensure_index(bounds.key)  # before the history, which maintains it
    apply_history(rel, bag, history)
    if bounds is not None:
        assert_index_fresh(rel, bounds.key)
    expected = outcome(lambda: evaluated(rel.copy(), expr)[0])
    counters = EvalCounters()
    got = outcome(lambda: evaluated(rel, expr, counters))
    if got[0] == "returned":
        got, access = ("returned", got[1][0]), got[1][1]
        assert access == ["range" if bounds is not None else "scan"]
        assert counters.rows_scanned <= rel.cardinality()
    assert got == expected, str(selection)


value_rows = st.lists(st.tuples(mixed, mixed, st.integers(0, 2)), max_size=12)
histories = st.lists(st.tuples(st.tuples(mixed, mixed, st.integers(0, 2)), st.integers(-2, 2)),
                     max_size=12)


@given(
    st.booleans(),
    value_rows,
    histories,
    st.lists(MIXED_CONJUNCTS, min_size=1, max_size=4),
    st.sampled_from(sorted(SHAPES)),
)
@settings(max_examples=500, deadline=None)
def test_range_path_matches_the_scan(bag, rows, history, parts, shape):
    check_range_path(bag, rows, history, conjoin(*parts), shape)


numeric = st.one_of(finite, finite, st.sampled_from([NAN, True, INF, -INF]))


@given(
    st.booleans(),
    st.lists(st.tuples(numeric, st.integers(-1, 1), st.integers(0, 2)), max_size=12),
    st.lists(range_conjunct(), min_size=1, max_size=2),
    st.sampled_from(sorted(SHAPES)),
)
@settings(max_examples=200, deadline=None)
def test_a_raising_rest_conjunct_raises_as_the_scan_does(bag, rows, prefix, shape):
    """``c / b`` raises ZeroDivisionError on ``b = 0``.  The range conjuncts
    over these keys never raise, so the range path raises exactly when some
    row inside the range (or in the unordered bucket) reaches the division —
    exactly the rows the scan divides on."""
    selection = conjoin(*prefix, Comparison(Arith(Attr("c"), "/", Attr("b")), ">=", Const(0)))
    check_range_path(bag, rows, [], selection, shape)


def bounds_of(text):
    return compile_scan_chain(Select(Scan("R"), parse_predicate(text)), SCHEMAS).bounds


def test_bounds_take_the_prefix_on_one_attribute():
    key = OrderedKey("a", Attr("a"))
    assert bounds_of("a >= 20 and a < 60") == ChainBounds(key, (20, False), (60, True), None)
    assert bounds_of("a > 1 and a >= 1 and a <= 3 and a < 3") == ChainBounds(
        key, (1, True), (3, True), None)
    assert bounds_of("5 > a") == ChainBounds(key, None, (5, True), None)
    assert bounds_of("a = 2.5") == ChainBounds(key, (2.5, False), (2.5, False), None)
    equal = bounds_of("a = 2 and b < 1 and a < 9")
    assert (equal.key, equal.low, equal.high) == (key, (2, False), (2, False))
    assert str(equal.rest.predicate) == "(b < 1 and a < 9)"
    assert bounds_of("b < 1 and a < 2").key == OrderedKey("b", Attr("b"))
    for text in ("a != 1 and a < 2", "a + 0 < 2", "a < b", "a < 'x'", "a < null"):
        assert bounds_of(text) is None, text


def test_a_range_reads_only_its_slice():
    """100 keys, a 10-key range: 10 rows read, plus the unordered bucket."""
    rel = SetRelation.from_values(SCHEMA, [(i, 0, 0) for i in range(100)] + [(NAN, 1, 1)])
    expr = Select(Scan("R"), parse_predicate("a >= 10 and a < 20"))
    # Not named indexable: the scan, every row read, no index built.
    counters = EvalCounters()
    evaluator = Evaluator({"R": rel}, counters=counters)
    evaluator.evaluate(expr)
    assert (counters.rows_scanned, counters.index_rebuilds, evaluator.access) == (101, 0, ["scan"])
    # Named: the first range σ builds the index (counted); every one reads its slice.
    for _ in range(2):
        evaluator = Evaluator({"R": rel}, counters=counters, indexable=frozenset({"R"}))
        answer = evaluator.evaluate(expr)
        assert sorted(r["a"] for r in answer.rows()) == list(range(10, 20))
        assert evaluator.access == ["range"]
    assert (counters.index_rebuilds, counters.rows_hashed) == (1, 101)
    assert counters.rows_scanned == 101 + 2 * (10 + 1)
