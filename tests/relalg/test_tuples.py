"""Unit tests for immutable rows."""

import pytest

from repro.errors import SchemaError
from repro.relalg import Row, row


def test_row_mapping_protocol():
    r = row(a=1, b="x")
    assert r["a"] == 1
    assert len(r) == 2
    assert set(r) == {"a", "b"}
    assert dict(r) == {"a": 1, "b": "x"}


def test_row_equality_order_insensitive():
    assert Row({"a": 1, "b": 2}) == Row({"b": 2, "a": 1})
    assert hash(Row({"a": 1, "b": 2})) == hash(Row({"b": 2, "a": 1}))


def test_row_does_not_equal_a_plain_mapping():
    # A row is a tuple (names, values): == is the tuple's own C comparison,
    # so a row equals only another row.  Compare dict(row) to a dict.
    assert row(a=1) != {"a": 1}
    assert dict(row(a=1)) == {"a": 1}


def test_row_immutable():
    r = row(a=1)
    with pytest.raises(AttributeError):
        r.x = 5
    with pytest.raises(TypeError):
        r["a"] = 2  # Mapping has no __setitem__


def test_project():
    r = row(a=1, b=2, c=3)
    assert r.project(["a", "c"]) == row(a=1, c=3)
    with pytest.raises(SchemaError):
        r.project(["zz"])


def test_merge_disjoint():
    assert row(a=1).merge(row(b=2)) == row(a=1, b=2)
    with pytest.raises(SchemaError):
        row(a=1).merge(row(a=2))


def test_merge_natural():
    assert row(a=1, b=2).merge_natural(row(b=2, c=3)) == row(a=1, b=2, c=3)
    with pytest.raises(SchemaError):
        row(a=1, b=2).merge_natural(row(b=9, c=3))


def test_rename():
    assert row(a=1, b=2).rename({"a": "x"}) == row(x=1, b=2)


def test_values_for():
    assert row(a=1, b=2, c=3).values_for(["c", "a"]) == (3, 1)


def test_with_value():
    r = row(a=1)
    r2 = r.with_value("b", 2)
    assert r2 == row(a=1, b=2)
    assert r == row(a=1)


def test_rows_usable_in_sets():
    s = {row(a=1), row(a=1), row(a=2)}
    assert len(s) == 2
