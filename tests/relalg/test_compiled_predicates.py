"""Compiled predicates ≡ the tree walker.

``Predicate.evaluate`` is the reference semantics; ``Predicate.compiled`` /
``compile_test`` is what every evaluation site runs.  The property here is
total: over the whole grammar and over rows holding ints, floats, strings,
``None`` and *missing* attributes, the compiled callable returns the same
``bool`` or raises the same exception type.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relalg import TRUE, And, Arith, Attr, Comparison, Const, Not, Or, parse_predicate
from repro.relalg.predicates import compile_test

# Small magnitudes: a depth-3 tower of ``*`` / ``^ 2`` over these stays below
# 2**16, so ``'ab' * n`` and ``n ** m`` stay cheap on every example.
values = st.one_of(
    st.integers(-2, 2),
    st.sampled_from([0.5, -1.5, 2.0]),
    st.sampled_from(["", "a", "ab"]),
    st.none(),
)
names = st.sampled_from(["a", "b", "c", "zz"])  # no row ever holds zz
rows = st.dictionaries(st.sampled_from(["a", "b", "c"]), values)

leaves = st.one_of(names.map(Attr), values.map(Const))
terms = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.builds(Arith, inner, st.sampled_from(["+", "-", "*", "/", "%"]), inner),
        st.builds(Arith, inner, st.just("^"), st.sampled_from([-1, 0, 1, 2]).map(Const)),
    ),
    max_leaves=4,
)
comparisons = st.builds(Comparison, terms, st.sampled_from(["=", "!=", "<", "<=", ">", ">="]), terms)
predicates = st.recursive(
    st.one_of(comparisons, st.just(TRUE)),
    lambda inner: st.one_of(
        st.builds(And, inner, inner), st.builds(Or, inner, inner), st.builds(Not, inner)
    ),
    max_leaves=4,
)


def outcome(test, *args):
    try:
        result = test(*args)
    except Exception as exc:  # the *type* is the contract
        return ("raised", type(exc))
    assert type(result) is bool
    return ("returned", result)


@given(predicates, rows)
@settings(max_examples=400, deadline=None)
def test_compiled_agrees_with_the_walker(pred, row):
    assert outcome(pred.compiled(), row) == outcome(pred.evaluate, row), str(pred)


@given(predicates, rows)
@settings(max_examples=200, deadline=None)
def test_rename_commutes_with_compilation(pred, row):
    mapping = {"a": "x", "b": "a"}  # injective on row keys; b takes a's old name
    renamed_row = {mapping.get(k, k): v for k, v in row.items()}
    assert outcome(pred.rename(mapping).compiled(), renamed_row) == outcome(pred.compiled(), row)


@given(predicates, rows, st.sets(st.sampled_from(["a", "b", "c", "zz"])))
@settings(max_examples=200, deadline=None)
def test_pair_form_reads_each_attribute_from_its_side(pred, row, right):
    """``compile_test(pred, right)`` over (left row, right row) ≡ the walker
    over the merged row — the join kernels test a pair before merging it."""
    left_row = {k: v for k, v in row.items() if k not in right}
    right_row = {k: v for k, v in row.items() if k in right}
    test = compile_test(pred, frozenset(right))
    assert outcome(test, left_row, right_row) == outcome(pred.evaluate, row), str(pred)


@given(st.integers(0, 5), st.integers(0, 5), rows)  # the grammar has no negative literals
def test_parsed_twice_compiles_to_agreeing_callables(lo, hi, row):
    text = f"a >= {lo} and (b < {hi} or not (c = 'ab'))"
    first, second = parse_predicate(text), parse_predicate(text)
    assert first is not second
    assert outcome(first.compiled(), row) == outcome(second.compiled(), row)
    assert outcome(first.compiled(), row) == outcome(first.evaluate, row)


def test_one_code_object_per_shape_and_one_callable_per_instance():
    narrow = parse_predicate("r1 >= 10 and r1 < 60")
    wide = parse_predicate("r1 >= 500 and r1 < 9000")
    assert narrow.compiled().__code__ is wide.compiled().__code__  # constants are arguments
    assert narrow.compiled() is narrow.compiled()  # kept on the instance
    assert narrow.compiled()({"r1": 59}) and not wide.compiled()({"r1": 59})
    assert narrow == parse_predicate("r1 >= 10 and r1 < 60")  # the cache is not a field
    other_attr = parse_predicate("r2 >= 10 and r2 < 60")
    assert other_attr.compiled().__code__ is not narrow.compiled().__code__
