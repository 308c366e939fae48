"""Property tests for the Heraclitus delta laws (Section 6.2), on the one
signed-count delta type: set laws on counts of ±1, bag laws on any count."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deltas import Delta, select_project
from repro.relalg import BagRelation, SetRelation, lt, make_schema, row, scan, evaluate

R = make_schema("R", ["a", "b"])

values = st.integers(min_value=0, max_value=5)
rows = st.builds(lambda a, b: row(a=a, b=b), values, values)
row_sets = st.frozensets(rows, max_size=8)


def set_relation(rows_):
    return SetRelation(R, rows_)


@st.composite
def set_deltas(draw):
    """A delta over R with counts of ±1."""
    delta = Delta()
    for r in draw(st.lists(rows, max_size=6, unique=True)):
        if draw(st.booleans()):
            delta.insert("R", r)
        else:
            delta.delete("R", r)
    return delta


@st.composite
def flips(draw, db):
    """An in-order delta against ``db``: each drawn row flips once — deleted
    if present, inserted if absent — so no atom is redundant for ``db``."""
    delta = Delta()
    for r in draw(st.lists(rows, max_size=6, unique=True)):
        (delta.delete if db.contains(r) else delta.insert)("R", r)
    return delta


@st.composite
def bag_deltas(draw):
    delta = Delta()
    for r in draw(st.lists(rows, max_size=6, unique=True)):
        delta.add("R", r, draw(st.integers(min_value=-3, max_value=3)))
    return delta


@given(row_sets, st.data())
@settings(max_examples=200, deadline=None)
def test_smash_law_set(db_rows, data):
    """apply(db, d1 ! d2) == apply(apply(db, d1), d2) for in-order deltas
    (d1 drawn against db, d2 against apply(db, d1)) — the precondition of
    the source and queue folds.  The fold is the net change: counts stay
    ±1 and equal diff(db, result)."""
    db = set_relation(db_rows)
    d1 = data.draw(flips(db))
    mid = d1.applied(db, "R")
    d2 = data.draw(flips(mid))
    sequential = d2.applied(mid, "R")
    folded = d1.copy()
    folded.absorb(d2)
    assert folded == d1.smash(d2)
    assert folded.applied(db, "R") == sequential
    assert folded == Delta.diff("R", db, sequential)


@given(row_sets, row_sets)
@settings(max_examples=200, deadline=None)
def test_diff_then_apply_roundtrip(before_rows, after_rows):
    before = set_relation(before_rows)
    after = set_relation(after_rows)
    delta = Delta.diff("R", before, after)
    assert delta.applied(before, "R") == after
    # Non-redundant by construction, so the inverse law holds exactly.
    assert delta.inverse().applied(after, "R") == before


@given(set_deltas(), set_deltas())
@settings(max_examples=200, deadline=None)
def test_inverse_of_smash_conflict_free(d1, d2):
    """(Δ1!Δ2)⁻¹ = Δ2⁻¹!Δ1⁻¹ — stated in the paper for the non-redundant
    deltas that arise in mediators.  With smash as addition it is an
    identity on raw delta values, conflicting atoms included."""
    assert d1.smash(d2).inverse() == d2.inverse().smash(d1.inverse())


@given(row_sets, row_sets, row_sets)
@settings(max_examples=150, deadline=None)
def test_inverse_of_smash_semantic(s0, s1, s2):
    """The semantic form of the same law: for deltas arising as consecutive
    state diffs, applying the smash and then the reversed inverse smash
    restores the original state."""
    db0, db1, db2 = set_relation(s0), set_relation(s1), set_relation(s2)
    d1 = Delta.diff("R", db0, db1)
    d2 = Delta.diff("R", db1, db2)
    smashed = d1.smash(d2)
    assert smashed.applied(db0, "R") == db2
    back = d2.inverse().smash(d1.inverse())
    assert back.applied(db2, "R") == db0


@given(set_deltas())
@settings(max_examples=100, deadline=None)
def test_double_inverse_identity(d):
    assert d.inverse().inverse() == d


@given(bag_deltas(), bag_deltas())
@settings(max_examples=200, deadline=None)
def test_bag_smash_commutes_and_associates(d1, d2):
    assert d1.smash(d2) == d2.smash(d1)  # bag smash is addition


@given(bag_deltas(), bag_deltas(), bag_deltas())
@settings(max_examples=100, deadline=None)
def test_bag_smash_associative(d1, d2, d3):
    assert d1.smash(d2).smash(d3) == d1.smash(d2.smash(d3))


@given(bag_deltas())
@settings(max_examples=100, deadline=None)
def test_bag_inverse_cancels(d):
    assert d.smash(d.inverse()).is_empty()


@given(row_sets, set_deltas(), st.integers(min_value=0, max_value=5))
@settings(max_examples=200, deadline=None)
def test_select_project_commutation(db_rows, delta, threshold):
    """π_C σ_f apply(R, Δ) == apply(π_C σ_f R, π_C σ_f Δ)  (Section 6.2)."""
    db = set_relation(db_rows)
    pred = lt("b", threshold)
    attrs = ("a",)
    expr = scan("R").select(pred).project(list(attrs))

    lhs = evaluate(expr, {"R": delta.applied(db, "R")})

    view = evaluate(expr, {"R": db}, "V")
    # Under tolerant set apply, redundant atoms may slip into the filtered
    # delta; compute the *effective* delta first (as the mediator's sources
    # guarantee by announcing non-redundant net deltas).
    effective = Delta.diff("R", db, delta.applied(db, "R"))
    filtered = select_project(effective, "R", pred, attrs, out_relation="V")
    filtered.apply_to(view, "V")
    assert lhs == view
