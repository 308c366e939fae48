"""Unit tests for deltas used with set semantics: counts of ±1 (Section 6.2)."""

import pytest

from repro.deltas import SetDelta
from repro.errors import DeltaError
from repro.relalg import SetRelation, make_schema, row

R = make_schema("R", ["a", "b"])


def rel(*values):
    return SetRelation.from_values(R, values)


def test_insert_delete_atoms():
    d = SetDelta()
    d.insert("R", row(a=1, b=2))
    d.delete("R", row(a=3, b=4))
    assert d.count("R", row(a=1, b=2)) == 1
    assert d.count("R", row(a=3, b=4)) == -1
    assert d.count("R", row(a=9, b=9)) == 0
    assert d.atom_count() == 2


def test_conflicting_atoms_rejected():
    """Opposite atoms for one row cannot coexist in a delta: they cancel."""
    d = SetDelta()
    d.insert("R", row(a=1, b=2))
    d.insert("R", row(a=3, b=4))
    d.delete("R", row(a=1, b=2))
    assert d.count("R", row(a=1, b=2)) == 0
    assert list(d.atoms()) == [("R", row(a=3, b=4), 1)]
    d.delete("R", row(a=3, b=4))
    assert d.is_empty() and d.relations() == ()


def test_duplicate_same_sign_ok():
    d = SetDelta()
    d.insert("R", row(a=1, b=2))
    d.insert("R", row(a=1, b=2))
    assert d.atom_count() == 1
    assert d.count("R", row(a=1, b=2)) == 2  # a set relation refuses it on apply
    with pytest.raises(DeltaError):
        d.apply_to(rel(), "R")


def test_multi_relation_delta():
    d = SetDelta()
    d.insert("R", row(a=1, b=2))
    d.insert("S", row(a=1, b=2))
    assert set(d.relations()) == {"R", "S"}
    restricted = d.restrict_to(["S"])
    assert restricted.relations() == ("S",)


def test_apply_semantics():
    d = SetDelta()
    d.insert("R", row(a=1, b=2))
    d.delete("R", row(a=3, b=4))
    target = rel((3, 4), (5, 6))
    d.apply_to(target, "R")
    assert target.contains(row(a=1, b=2))
    assert not target.contains(row(a=3, b=4))
    assert target.contains(row(a=5, b=6))


def test_apply_is_tolerant_of_redundant_atoms():
    d = SetDelta()
    d.insert("R", row(a=1, b=2))  # already present
    d.delete("R", row(a=9, b=9))  # absent
    target = rel((1, 2))
    d.apply_to(target, "R")
    assert target.to_sorted_list() == [((1, 2), 1)]


def test_smash_law():
    """apply(db, d1 ! d2) == apply(apply(db, d1), d2)."""
    d1 = SetDelta()
    d1.insert("R", row(a=1, b=2))
    d2 = SetDelta()
    d2.delete("R", row(a=1, b=2))
    d2.insert("R", row(a=3, b=4))

    db = rel((5, 6))
    sequential = d2.applied(d1.applied(db, "R"), "R")
    smashed = d1.smash(d2).applied(db, "R")
    assert sequential == smashed


def test_smash_later_wins():
    """Where the later atom used to win, the counts now cancel; against the
    set the atoms were drawn from, both leave the same net change."""
    d1 = SetDelta()
    d1.insert("R", row(a=1, b=2))
    d2 = SetDelta()
    d2.delete("R", row(a=1, b=2))
    s = d1.smash(d2)
    assert s.count("R", row(a=1, b=2)) == 0
    later_wins = d2
    base = rel((5, 6))  # the state d1 was drawn against: (1, 2) absent
    assert s.normalized("R", base) == later_wins.normalized("R", base) == SetDelta()


def test_inverse_undoes_nonredundant_delta():
    db = rel((1, 2))
    d = SetDelta.diff("R", db, rel((3, 4)))
    forward = d.applied(db, "R")
    back = d.inverse().applied(forward, "R")
    assert back == db


def test_inverse_of_smash_law():
    d1 = SetDelta()
    d1.insert("R", row(a=1, b=2))
    d2 = SetDelta()
    d2.insert("R", row(a=3, b=4))
    assert d1.smash(d2).inverse() == d2.inverse().smash(d1.inverse())


def test_diff_computes_net_change():
    before = rel((1, 2), (3, 4))
    after = rel((3, 4), (5, 6))
    d = SetDelta.diff("R", before, after)
    assert d.count("R", row(a=1, b=2)) == -1
    assert d.count("R", row(a=5, b=6)) == 1
    assert d.count("R", row(a=3, b=4)) == 0
    assert d.applied(before, "R") == after


def test_redundancy_detection():
    d = SetDelta()
    d.insert("R", row(a=1, b=2))
    d.delete("R", row(a=3, b=4))
    assert d.normalized("R", rel((1, 2))).is_empty()  # both atoms redundant
    assert d.normalized("R", rel((3, 4))) == d  # neither
    kept = d.normalized("R", rel((1, 2), (3, 4)))
    assert list(kept.atoms()) == [("R", row(a=3, b=4), -1)]


def test_insertions_deletions_lists():
    d = SetDelta()
    d.insert("R", row(a=1, b=2))
    d.delete("R", row(a=3, b=4))
    assert d.insertions("R") == [row(a=1, b=2)]
    assert d.deletions("R") == [row(a=3, b=4)]


def test_emptiness_and_bool():
    d = SetDelta()
    assert d.is_empty()
    assert not d
    d.insert("R", row(a=1, b=2))
    assert d


def test_equality_and_copy():
    d = SetDelta()
    d.insert("R", row(a=1, b=2))
    clone = d.copy()
    assert clone == d
    clone.insert("R", row(a=3, b=4))
    assert clone != d


def test_from_counts():
    d = SetDelta.from_counts("R", {row(a=1, b=2): 1, row(a=3, b=4): -1, row(a=5, b=6): 0})
    assert d.count("R", row(a=1, b=2)) == 1
    assert d.count("R", row(a=3, b=4)) == -1
    assert d.atom_count() == 2  # a zero count is no atom
    assert SetDelta.from_counts("R", {}).relations() == ()


def test_diff_emits_atoms_in_sorted_order():
    """diff's atom order must not follow frozenset (hash) iteration: it is
    observable downstream (propagation, provenance, trace events) and has
    to be identical across processes and hash seeds."""
    before = rel((1, 1), (2, 2), (3, 3))
    after = rel((3, 3), (5, 5), (4, 4), (9, 9))
    d = SetDelta.diff("R", before, after)
    atoms = list(d.atoms())
    inserts = [r for _, r, s in atoms if s > 0]
    deletes = [r for _, r, s in atoms if s < 0]
    assert inserts == sorted(inserts, key=repr)
    assert deletes == sorted(deletes, key=repr)
    # And inserts are emitted before deletes, as one fixed convention.
    assert atoms == [(n, r, s) for n, r, s in atoms if s > 0] + [
        (n, r, s) for n, r, s in atoms if s < 0
    ]
