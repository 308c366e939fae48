"""Unit tests for set and bag relation containers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeltaError, SchemaError
from repro.relalg import BagRelation, SetRelation, make_schema, row

R = make_schema("R", ["a", "b"], key=["a"])


def test_set_relation_insert_delete():
    rel = SetRelation(R)
    rel.insert(row(a=1, b=2))
    assert rel.contains(row(a=1, b=2))
    assert rel.cardinality() == 1
    rel.delete(row(a=1, b=2))
    assert rel.is_empty()


def test_set_relation_duplicate_insert_raises():
    rel = SetRelation(R, [row(a=1, b=2)])
    with pytest.raises(DeltaError):
        rel.insert(row(a=1, b=2))


def test_set_relation_absent_delete_raises():
    rel = SetRelation(R)
    with pytest.raises(DeltaError):
        rel.delete(row(a=1, b=2))


def test_set_relation_rejects_multiplicity():
    rel = SetRelation(R)
    with pytest.raises(DeltaError):
        rel.insert(row(a=1, b=2), 2)


def test_schema_mismatch_rejected():
    rel = SetRelation(R)
    with pytest.raises(SchemaError):
        rel.insert(row(x=1))


@pytest.mark.parametrize(
    "wrong", [row(x=1), row(a=1), row(a=1, b=2, c=3), row(a=1, c=2)]
)
def test_wrong_attribute_row_rejected_by_insert_delete_and_bulk_load(wrong):
    """The per-row schema check survives on every entry point, including
    the bulk constructor that fills the container in one copy."""
    for rel in (SetRelation(R), BagRelation(R)):
        with pytest.raises(SchemaError):
            rel.insert(wrong)
        with pytest.raises(SchemaError):
            rel.delete(wrong)
        assert rel.is_empty()
    with pytest.raises(SchemaError):
        BagRelation(R, {row(a=1, b=2): 1, wrong: 1})
    with pytest.raises(SchemaError):
        SetRelation(R, [wrong])


def test_bulk_load_checks_multiplicities_and_copies_its_input():
    with pytest.raises(DeltaError):
        BagRelation(R, {row(a=1, b=2): 0})
    counts = {row(a=1, b=2): 2}
    rel = BagRelation(R, counts)
    counts[row(a=3, b=4)] = 1
    assert rel.to_sorted_list() == [((1, 2), 2)]


def test_bag_relation_multiplicities():
    rel = BagRelation(R)
    rel.insert(row(a=1, b=2), 3)
    rel.insert(row(a=1, b=2))
    assert rel.count(row(a=1, b=2)) == 4
    assert rel.cardinality() == 4
    assert rel.distinct_cardinality() == 1
    rel.delete(row(a=1, b=2), 4)
    assert rel.is_empty()


def test_bag_relation_over_delete_raises():
    rel = BagRelation(R)
    rel.insert(row(a=1, b=2))
    with pytest.raises(DeltaError):
        rel.delete(row(a=1, b=2), 2)


def test_bag_adjust():
    rel = BagRelation(R)
    rel.adjust(row(a=1, b=2), 2)
    rel.adjust(row(a=1, b=2), -1)
    rel.adjust(row(a=1, b=2), 0)
    assert rel.count(row(a=1, b=2)) == 1


def test_bag_items_is_the_live_view_and_never_holds_a_non_positive_count():
    """``items()`` hands out the dict's own view with no ``n > 0`` filter, so
    every way of changing a bag must leave only positive counts behind."""
    rel = BagRelation(R, {row(a=1, b=2): 2})
    for bad in (0, -1):
        with pytest.raises(DeltaError):
            BagRelation(R, {row(a=1, b=2): bad})
        with pytest.raises(DeltaError):
            rel.insert(row(a=5, b=5), bad)
        with pytest.raises(DeltaError):
            rel.delete(row(a=1, b=2), bad)
    with pytest.raises(DeltaError):
        rel.delete(row(a=1, b=2), 3)  # over-delete: refused, nothing stored
    with pytest.raises(DeltaError):
        rel.delete(row(a=9, b=9))  # absent row: no zero entry appears
    rel.adjust(row(a=7, b=7), 0)
    assert rel.count(row(a=7, b=7)) == 0 and rel.count(row(a=9, b=9)) == 0
    view = rel.items()
    rel.insert(row(a=3, b=4))
    rel.delete(row(a=1, b=2))
    rel.delete(row(a=1, b=2))  # reaches zero: the entry goes
    assert dict(view) == {row(a=3, b=4): 1}  # live, not a snapshot
    assert dict(rel.copy().items()) == {row(a=3, b=4): 1}
    assert rel.cardinality() == rel.distinct_size() == 1


def test_bag_distinct():
    rel = BagRelation(R)
    rel.insert(row(a=1, b=2), 5)
    rel.insert(row(a=2, b=3), 1)
    d = rel.distinct()
    assert d.cardinality() == 2
    assert d.count(row(a=1, b=2)) == 1


def test_copy_is_independent():
    rel = BagRelation(R)
    rel.insert(row(a=1, b=2))
    clone = rel.copy()
    clone.insert(row(a=1, b=2))
    assert rel.count(row(a=1, b=2)) == 1
    assert clone.count(row(a=1, b=2)) == 2


def test_from_values():
    rel = SetRelation.from_values(R, [(1, 2), (3, 4)])
    assert rel.contains(row(a=1, b=2))
    bag = BagRelation.from_values(R, [(1, 2), (1, 2)])
    assert bag.count(row(a=1, b=2)) == 2


def test_equality_ignores_container_kind_but_not_counts():
    s = SetRelation.from_values(R, [(1, 2)])
    b1 = BagRelation.from_values(R, [(1, 2)])
    b2 = BagRelation.from_values(R, [(1, 2), (1, 2)])
    assert s == b1
    assert s != b2


def test_rows_iteration_respects_multiplicity():
    bag = BagRelation.from_values(R, [(1, 2), (1, 2), (3, 4)])
    assert len(list(bag.rows())) == 3


def test_to_sorted_list_deterministic():
    bag = BagRelation.from_values(R, [(3, 4), (1, 2), (1, 2)])
    assert bag.to_sorted_list() == [((1, 2), 2), ((3, 4), 1)]


def test_support():
    bag = BagRelation.from_values(R, [(1, 2), (1, 2)])
    assert bag.support() == frozenset([row(a=1, b=2)])


# ---------------------------------------------------------------------------
# The answer digest's input: the listing must not move by one byte
# ---------------------------------------------------------------------------
def reference_sorted_list(rel):
    """``Relation.to_sorted_list`` as it was written against dict-backed
    rows, kept here as the reference the column-wise listing must match."""

    def sort_key(value):
        return (type(value).__name__, repr(value))

    names = rel.schema.attribute_names
    listing = [(tuple(r[n] for n in names), n) for r, n in rel.items()]
    return sorted(listing, key=lambda pair: tuple(map(sort_key, pair[0])))


listing_cells = st.one_of(
    st.integers(-20, 20),
    st.floats(allow_nan=False, width=16),
    st.booleans(),
    st.text(alphabet="ab'", max_size=3),
    st.none(),
    st.tuples(st.integers(0, 3), st.one_of(st.none(), st.text(alphabet="a", max_size=1))),
)
#: One column of ints only, one of anything (mixed types in one column).
listing_rows = st.lists(st.tuples(st.integers(-20, 20), listing_cells, listing_cells), max_size=12)


@given(listing_rows, st.lists(st.integers(1, 3), min_size=12, max_size=12))
@settings(max_examples=300, deadline=None)
def test_to_sorted_list_matches_the_reference_listing(value_rows, counts):
    schema = make_schema("L", ["z", "a", "m"])  # declared order is not row order
    rows = [row(z=z, a=a, m=m) for z, a, m in value_rows]
    bag = BagRelation(schema, dict(zip(rows, counts)))
    assert repr(bag.to_sorted_list()) == repr(reference_sorted_list(bag))
    as_set = SetRelation(schema, set(rows))
    assert repr(as_set.to_sorted_list()) == repr(reference_sorted_list(as_set))
