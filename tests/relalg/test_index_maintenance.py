"""Property tests: persistent join indexes are maintained, never stale.

The compiled propagation engine relies on one invariant: after ANY
sequence of inserts, deletes, and applied deltas, a relation's persistent
index answers lookups exactly as a from-scratch hash of its current rows
would — for bag and set semantics alike, including multiplicity edges
(a bucket entry must vanish the moment its multiplicity reaches zero, and
an emptied bucket must not shadow later reinsertions).  An ordered index
(a term's value per row plus its sorted distinct keys) is held to the same
standard, its sorted key list included.
"""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deltas import Delta, SetDelta
from repro.relalg import BagRelation, OrderedKey, SetRelation, make_schema, parse_predicate, row

SCHEMA = make_schema("R", ["a", "b", "c"])
KEYS = ("a", "b")


def from_scratch_index(rel, keys):
    index = defaultdict(dict)
    for r, n in rel.items():
        index[r.values_for(keys)][r] = n
    return dict(index)


def assert_index_fresh(rel, keys):
    """The maintained index equals a from-scratch hash, bucket for bucket.

    White-box on purpose: comparing the internal structure (not just
    lookups of known values) catches stale buckets for value tuples that
    no current row carries.
    """
    expected = from_scratch_index(rel, keys)
    assert rel._indexes[keys] == expected
    for values, bucket in expected.items():
        assert dict(rel.index_lookup(keys, values)) == bucket
    assert rel.index_lookup(keys, ("__absent__", "__absent__")) == []


# Each op: (kind, a, b, c, multiplicity); deltas batch several signed rows.
ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "delta"]),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=1, max_value=3),
    ),
    max_size=40,
)


@given(ops)
@settings(max_examples=150, deadline=None)
def test_bag_index_maintained_under_random_ops(steps):
    rel = BagRelation(SCHEMA)
    rel.ensure_index(KEYS)
    pending_delta = Delta()
    for kind, a, b, c, n in steps:
        r = row(a=a, b=b, c=c)
        if kind == "insert":
            rel.insert(r, n)
        elif kind == "delete":
            # Deleting down to zero must clear the bucket entry.
            m = min(n, rel.count(r))
            if m:
                rel.delete(r, m)
        else:
            sign = 1 if (a + b + c) % 2 else -1
            if sign < 0 and rel.count(r) < n:
                sign = 1
            pending_delta.add("R", r, sign * n)
            pending_delta.apply_to(rel, "R")
            pending_delta = Delta()
        assert_index_fresh(rel, KEYS)


@given(ops)
@settings(max_examples=150, deadline=None)
def test_set_index_maintained_under_random_ops(steps):
    rel = SetRelation(SCHEMA)
    rel.ensure_index(KEYS)
    for kind, a, b, c, _ in steps:
        r = row(a=a, b=b, c=c)
        if kind == "insert":
            if not rel.contains(r):
                rel.insert(r)
        elif kind == "delete":
            if rel.contains(r):
                rel.delete(r)
        else:
            delta = SetDelta()
            if rel.contains(r):
                delta.delete("R", r)
            else:
                delta.insert("R", r)
            delta.apply_to(rel, "R")
        assert_index_fresh(rel, KEYS)


def test_bag_multiplicity_crossing_zero_clears_bucket():
    """The difference-node edge case: multiplicity 2 → 1 → 0 → 1.

    A set (difference) node's operands are bags whose support transitions
    at 0↔positive drive the rule; a stale index entry at multiplicity 0
    would resurrect a row the difference already evicted.
    """
    rel = BagRelation(SCHEMA)
    rel.ensure_index(KEYS)
    r = row(a=1, b=1, c=0)
    rel.insert(r, 2)
    assert dict(rel.index_lookup(KEYS, (1, 1))) == {r: 2}
    rel.delete(r, 1)
    assert dict(rel.index_lookup(KEYS, (1, 1))) == {r: 1}
    rel.delete(r, 1)
    assert rel.index_lookup(KEYS, (1, 1)) == []
    assert_index_fresh(rel, KEYS)
    rel.insert(r, 1)
    assert dict(rel.index_lookup(KEYS, (1, 1))) == {r: 1}
    assert_index_fresh(rel, KEYS)


def test_negative_delta_via_apply_updates_index():
    rel = BagRelation(SCHEMA)
    rel.insert(row(a=1, b=2, c=0), 3)
    rel.ensure_index(KEYS)
    delta = Delta.from_counts("R", {row(a=1, b=2, c=0): -2, row(a=5, b=5, c=1): 1})
    delta.apply_to(rel, "R")
    assert dict(rel.index_lookup(KEYS, (1, 2))) == {row(a=1, b=2, c=0): 1}
    assert dict(rel.index_lookup(KEYS, (5, 5))) == {row(a=5, b=5, c=1): 1}
    assert_index_fresh(rel, KEYS)


def test_copy_drops_indexes():
    """A copy is a fresh relation: it must not share (or keep) index state."""
    rel = BagRelation(SCHEMA)
    rel.insert(row(a=1, b=1, c=1))
    rel.ensure_index(KEYS)
    clone = rel.copy()
    assert rel.has_index(KEYS)
    assert not clone.has_index(KEYS)
    clone.insert(row(a=2, b=2, c=2))
    assert rel.index_lookup(KEYS, (2, 2)) == []


def test_ensure_index_is_idempotent_and_counted():
    from repro.relalg import EvalCounters

    counters = EvalCounters()
    rel = BagRelation(SCHEMA)
    rel.insert(row(a=1, b=1, c=1))
    rel.insert(row(a=2, b=1, c=1))
    rel.ensure_index(KEYS, counters)
    assert counters.index_rebuilds == 1
    assert counters.rows_hashed == 2
    rel.ensure_index(KEYS, counters)  # already built: free
    assert counters.index_rebuilds == 1
    assert counters.rows_hashed == 2


def test_ensure_index_rejects_unknown_attributes():
    rel = BagRelation(SCHEMA)
    with pytest.raises(Exception):
        rel.ensure_index(("a", "nope"))


# ---------------------------------------------------------------------------
# Ordered indexes: a term's value per row, plus the sorted distinct keys
# ---------------------------------------------------------------------------
TERM = parse_predicate("a * b - c < 0").left
TERM_KEY = OrderedKey(str(TERM), TERM)
# Finite numbers (int / float ties included) and values the index cannot
# order: None and strings make the term raise, NaN and inf are not finite.
ordered_values = st.sampled_from([0, 1, 2, 1.0, 0.5, -1, None, "s", float("nan"), float("inf")])
ordered_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "adjust"]),
        ordered_values,
        ordered_values,
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=-2, max_value=3),
    ),
    max_size=40,
)


def assert_ordered_index_fresh(rel):
    """Bucket for bucket and key for key, the maintained ordered index equals
    one built from scratch over the relation's current rows."""
    scratch = rel.copy()
    assert not scratch.has_index(TERM_KEY)  # copy() drops it
    scratch.ensure_index(TERM_KEY)
    assert rel.index_buckets(TERM_KEY) == scratch.index_buckets(TERM_KEY)
    order = rel.index_order(TERM_KEY)
    assert order == scratch.index_order(TERM_KEY)
    assert order == sorted(order) and None not in order
    assert len(order) == len(set(order)) == len(rel.index_buckets(TERM_KEY)) - (
        None in rel.index_buckets(TERM_KEY)
    )


@given(ordered_ops, st.booleans())
@settings(max_examples=150, deadline=None)
def test_ordered_index_maintained_under_random_ops(steps, bag):
    rel = BagRelation(SCHEMA) if bag else SetRelation(SCHEMA)
    rel.ensure_index(TERM_KEY)
    rel.ensure_index(KEYS)  # maintained side by side in the same loop
    for kind, a, b, c, n in steps:
        r = row(a=a, b=b, c=c)
        if not bag:
            n = 1 if not rel.contains(r) else -1
        if kind == "insert" and n > 0:
            rel.insert(r, n)
        elif kind == "delete" and rel.count(r):
            rel.delete(r, min(abs(n) or 1, rel.count(r)))
        elif kind == "adjust" and bag and n >= -rel.count(r):
            rel.adjust(r, n)
        assert_ordered_index_fresh(rel)
        assert_index_fresh(rel, KEYS)


def test_ordered_index_is_dropped_by_copy_and_counted_once():
    from repro.relalg import EvalCounters

    counters = EvalCounters()
    rel = BagRelation.from_values(SCHEMA, [(1, 2, 0), (3, 1, 1), (None, 1, 0)])
    rel.ensure_index(TERM_KEY, counters)
    rel.ensure_index(TERM_KEY, counters)
    assert (counters.index_rebuilds, counters.rows_hashed) == (1, 3)
    assert rel.index_order(TERM_KEY) == [2]
    assert not rel.copy().has_index(TERM_KEY)


@pytest.mark.parametrize("bag", [False, True])
def test_equal_rows_share_one_ordered_key(bag):
    """``Row(a=True) == Row(a=1)``: deleting one through the other must
    empty the index too, so a bool orders as the number it equals."""
    key = OrderedKey("a", parse_predicate("a < 0").left)
    rel = (BagRelation if bag else SetRelation).from_values(SCHEMA, [(True, 1, 1)])
    rel.ensure_index(key)
    rel.delete(row(a=1, b=1, c=1))
    assert rel.cardinality() == 0
    assert rel.index_buckets(key) == {} and rel.index_order(key) == []
