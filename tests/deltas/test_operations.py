"""Unit tests for generic delta operations and leaf-parent filtering."""

import pytest

import functools

from repro.deltas import (
    Delta,
    LeafParentFilter,
    SetDelta,
    prefilter,
    rename_delta,
    select_project,
)
from repro.errors import DeltaError
from repro.relalg import (
    BagRelation,
    SetRelation,
    evaluate,
    ge,
    lt,
    make_schema,
    row,
    scan,
)

R = make_schema("R", ["a", "b"])


def test_apply_delta_dispatch_set():
    target = SetRelation.from_values(R, [(1, 2)])
    d = SetDelta()
    d.insert("R", row(a=3, b=4))
    d.apply_to(target, "R")
    assert target.contains(row(a=3, b=4))


def test_apply_delta_dispatch_bag():
    target = BagRelation.from_values(R, [(1, 2)])
    d = Delta.from_counts("R", {row(a=1, b=2): 2})
    d.apply_to(target, "R")
    assert target.count(row(a=1, b=2)) == 3


def test_apply_delta_converts_between_kinds():
    """One delta applies to either kind of relation: the relation decides
    what a count means."""
    d = SetDelta()
    d.delete("R", row(a=1, b=2))
    for target in (BagRelation.from_values(R, [(1, 2)]), SetRelation.from_values(R, [(1, 2)])):
        d.apply_to(target, "R")
        assert target.is_empty()


def test_bag_to_set_rejects_large_counts():
    """A count of 2 is a bag adjustment; a set relation refuses it, whether
    the row is present or not."""
    d = Delta.from_counts("R", {row(a=1, b=2): 2})
    for rows in ([], [(1, 2)]):
        with pytest.raises(DeltaError):
            d.apply_to(SetRelation.from_values(R, rows), "R")


def test_smash_all():
    """Smashing a sequence left to right is a fold of ``smash``."""
    d1 = SetDelta()
    d1.insert("R", row(a=1, b=2))
    d2 = SetDelta()
    d2.delete("R", row(a=1, b=2))
    d2.insert("R", row(a=3, b=4))
    result = functools.reduce(Delta.smash, [d1, d2])
    assert result.count("R", row(a=1, b=2)) == 0
    assert list(result.atoms()) == [("R", row(a=3, b=4), 1)]
    assert d1.count("R", row(a=1, b=2)) == 1  # smash copies; absorb folds in place


def test_select_project_commutation_law():
    """π_C σ_f apply(R, Δ) == apply(π_C σ_f R, π_C σ_f Δ) — Section 6.2."""
    base = SetRelation.from_values(R, [(1, 10), (2, 20)])
    d = SetDelta()
    d.insert("R", row(a=3, b=5))
    d.delete("R", row(a=1, b=10))

    pred = lt("b", 15)
    attrs = ("a",)

    # Left side: apply then select/project.
    updated = d.applied(base, "R")
    lhs = evaluate(scan("R").select(pred).project(list(attrs)), {"R": updated})

    # Right side: select/project both, then apply.
    view = evaluate(scan("R").select(pred).project(list(attrs)), {"R": base}, "V")
    filtered = select_project(d, "R", pred, attrs, out_relation="V")
    filtered.apply_to(view, "V")

    assert lhs == view


def test_select_project_merges_projected_atoms():
    d = Delta()
    d.add("R", row(a=1, b=10), 1)
    d.add("R", row(a=1, b=20), 1)
    out = select_project(d, "R", lt("b", 100), ("a",))
    assert out.count("R", row(a=1)) == 2


def test_rename_delta():
    d = SetDelta()
    d.insert("R", row(a=1, b=2))
    out = rename_delta(d, {"a": "x"}, "R", out_relation="R2")
    assert out.count("R2", row(x=1, b=2)) == 1


def test_leaf_parent_filter():
    lp = LeafParentFilter("Rp", "R", lt("b", 15), ("a",))
    d = SetDelta()
    d.insert("R", row(a=1, b=10))
    d.insert("R", row(a=2, b=99))  # dropped by predicate
    d.insert("S", row(a=5, b=5))  # other relation ignored
    out = lp.filter(d)
    assert dict(out.atoms_for("Rp")) == {row(a=1): 1}


def test_leaf_parent_prefilter_keeps_other_relations():
    lp = LeafParentFilter("Rp", "R", lt("b", 15))
    d = SetDelta()
    d.insert("R", row(a=2, b=99))
    d.insert("S", row(a=5, b=5))
    out = prefilter(d, [lp])
    assert out.count("R", row(a=2, b=99)) == 0
    assert out.count("S", row(a=5, b=5)) == 1
    # Any filter over a relation keeps an atom: a second leaf-parent over R
    # that wants b >= 50 keeps the row the first one drops.
    out = prefilter(d, [lp, LeafParentFilter("Rq", "R", ge("b", 50))])
    assert out.count("R", row(a=2, b=99)) == 1
