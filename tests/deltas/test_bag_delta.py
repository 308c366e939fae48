"""Unit tests for deltas used with bag semantics: any signed count."""

import pytest

from repro.deltas import Delta
from repro.errors import DeltaError
from repro.relalg import BagRelation, make_schema, row

R = make_schema("R", ["a"])


def bag(*counts):
    rel = BagRelation(R)
    for value, n in counts:
        rel.insert(row(a=value), n)
    return rel


def test_add_accumulates_and_cancels():
    d = Delta()
    d.add("R", row(a=1), 2)
    d.add("R", row(a=1), -2)
    assert d.is_empty()
    d.add("R", row(a=1), 3)
    assert d.count("R", row(a=1)) == 3


def test_insert_delete_validation():
    d = Delta()
    with pytest.raises(DeltaError):
        d.insert("R", row(a=1), 0)
    with pytest.raises(DeltaError):
        d.delete("R", row(a=1), -1)


def test_apply_adjusts_multiplicities():
    d = Delta()
    d.insert("R", row(a=1), 2)
    d.delete("R", row(a=2), 1)
    target = bag((2, 3))
    d.apply_to(target, "R")
    assert target.count(row(a=1)) == 2
    assert target.count(row(a=2)) == 2


def test_apply_rejects_negative_multiplicity():
    d = Delta()
    d.delete("R", row(a=1), 5)
    with pytest.raises(DeltaError):
        d.apply_to(bag((1, 2)), "R")


def test_smash_is_addition():
    d1 = Delta.from_counts("R", {row(a=1): 2})
    d2 = Delta.from_counts("R", {row(a=1): -1, row(a=2): 4})
    s = d1.smash(d2)
    assert s.count("R", row(a=1)) == 1
    assert s.count("R", row(a=2)) == 4


def test_smash_law_on_bags():
    db = bag((1, 3))
    d1 = Delta.from_counts("R", {row(a=1): -2, row(a=2): 1})
    d2 = Delta.from_counts("R", {row(a=2): 2})
    assert d1.smash(d2).applied(db, "R") == d2.applied(d1.applied(db, "R"), "R")


def test_inverse():
    d = Delta.from_counts("R", {row(a=1): 3, row(a=2): -1})
    inv = d.inverse()
    assert inv.count("R", row(a=1)) == -3
    assert inv.count("R", row(a=2)) == 1
    db = bag((1, 1), (2, 5))
    assert inv.applied(d.applied(db, "R"), "R") == db


def test_diff():
    before = bag((1, 2), (2, 1))
    after = bag((1, 1), (3, 4))
    d = Delta.diff("R", before, after)
    assert d.count("R", row(a=1)) == -1
    assert d.count("R", row(a=2)) == -1
    assert d.count("R", row(a=3)) == 4
    assert d.applied(before, "R") == after


def test_insertions_deletions():
    d = Delta.from_counts("R", {row(a=1): 2, row(a=2): -3})
    assert d.insertions("R") == [row(a=1)]
    assert d.deletions("R") == [row(a=2)]


def test_atom_count():
    d = Delta.from_counts("R", {row(a=1): 2, row(a=2): -3})
    assert d.atom_count() == 2  # distinct rows, not the sum of counts


def test_restrict_to():
    d = Delta()
    d.add("R", row(a=1), 1)
    d.add("S", row(a=1), 1)
    assert d.restrict_to(["R"]).relations() == ("R",)


def test_equality_copy_bool():
    d = Delta.from_counts("R", {row(a=1): 1})
    clone = d.copy()
    assert clone == d and bool(d)
    clone.add("R", row(a=1), 1)
    assert clone != d
    assert not Delta()
