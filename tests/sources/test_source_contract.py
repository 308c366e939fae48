"""One source contract, both backends.

Everything `SourceDatabase.execute` promises — which commits are refused and
with what message, what a refused commit leaves behind, how `None`-valued
rows behave, what the announcement accumulator holds — is asserted here once
and run against `MemorySource` and `SQLiteSource` alike.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deltas import SetDelta
from repro.errors import SchemaError, SourceError
from repro.relalg import make_schema, row
from repro.sources import MemorySource, SQLiteSource

P = make_schema("P", ["k", "v"])  # keyless: only set semantics constrains it
Q = make_schema("Q", ["q1", "q2"], key=["q1"])

BACKENDS = [MemorySource, SQLiteSource]


def make_source(backend, initial=None):
    initial = initial if initial is not None else {"P": [(1, 10), (2, None)], "Q": [(1, 5)]}
    return backend("db", [P, Q], initial=initial)


def stored(source):
    return {name: rel.to_sorted_list() for name, rel in source.state().items()}


def observable(source):
    """Everything a refused commit must leave untouched."""
    return (
        stored(source),
        source.txn_count,
        [(seq, list(delta.atoms())) for seq, delta in source.log()],
        list(source.pending_announcement().atoms()),
    )


# ----------------------------------------------------------------------
# Refusals: same checks, same text
# ----------------------------------------------------------------------
REFUSALS = {
    "redundant insert": (
        lambda s: s.insert("P", k=1, v=10),
        "redundant insert into db.P: {'k': 1, 'v': 10}",
    ),
    "redundant delete": (
        lambda s: s.delete("P", k=9, v=9),
        "redundant delete from db.P: {'k': 9, 'v': 9}",
    ),
    "unknown relation": (
        lambda s: s.insert("Z", z=1),
        "source 'db' has no relation 'Z'",
    ),
    "row inserted twice": (
        lambda s: s.execute(_twice("P", row(k=3, v=30))),
        "count 2 for db.P: {'k': 3, 'v': 30}; a source relation takes +1 or -1 per row",
    ),
}


def _twice(relation, r):
    """One delta inserting ``r`` twice: the counts add up to +2."""
    delta = SetDelta()
    delta.insert(relation, r)
    delta.insert(relation, r)
    return delta


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal_has_one_message_and_leaves_everything_untouched(backend, case):
    commit, message = REFUSALS[case]
    source = make_source(backend)
    source.insert("Q", q1=2, q2=6)  # a log entry and a pending atom to preserve
    before = observable(source)
    with pytest.raises(SourceError) as excinfo:
        commit(source)
    assert str(excinfo.value) == message
    assert observable(source) == before


@pytest.mark.parametrize("backend", BACKENDS)
def test_redundant_atom_in_second_relation_refuses_whole_delta(backend):
    """Validation finishes before any write: the first relation's valid
    atoms must not reach storage when the second relation's atom is bad."""
    source = make_source(backend)
    source.insert("Q", q1=2, q2=6)
    before = observable(source)
    delta = SetDelta()
    delta.insert("P", row(k=3, v=30))
    delta.delete("P", row(k=1, v=10))
    delta.insert("Q", row(q1=1, q2=5))  # already stored
    with pytest.raises(SourceError, match="redundant insert into db.Q"):
        source.execute(delta)
    assert observable(source) == before


@pytest.mark.parametrize("backend", BACKENDS)
def test_delete_then_insert_of_one_row_is_an_empty_transaction(backend):
    """Counts add: ``-t`` then ``+t`` in one delta cancel, so the commit is
    an empty transaction — counted and logged, nothing stored or announced."""
    source = make_source(backend)
    before = stored(source)
    delta = SetDelta()
    delta.delete("P", row(k=1, v=10))
    delta.insert("P", row(k=1, v=10))
    assert delta.is_empty()
    assert source.execute(delta) == 1
    assert stored(source) == before
    assert source.log() == [(1, SetDelta())]
    assert not source.has_pending_announcement()


# ----------------------------------------------------------------------
# None-valued rows are rows like any other
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_none_valued_row_inserts_rejects_duplicate_and_deletes(backend):
    source = make_source(backend, initial={})
    source.insert("P", k=3, v=None)
    assert stored(source)["P"] == [((3, None), 1)]
    before = observable(source)
    with pytest.raises(SourceError, match="redundant insert into db.P"):
        source.insert("P", k=3, v=None)
    assert observable(source) == before
    source.delete("P", k=3, v=None)
    assert stored(source)["P"] == []
    assert source.txn_count == 2
    assert not source.has_pending_announcement()  # insert and delete net out


@pytest.mark.parametrize("backend", BACKENDS)
def test_deleting_initial_none_valued_row_reaches_storage(backend):
    """`col = NULL` matches nothing; the commit used to be counted, logged
    and announced on SQLite while the row stayed in storage."""
    source = make_source(backend)
    source.delete("P", k=2, v=None)
    assert stored(source)["P"] == [((1, 10), 1)]
    assert list(source.pending_announcement().atoms()) == [("P", row(k=2, v=None), -1)]
    with pytest.raises(SourceError, match="redundant delete from db.P"):
        source.delete("P", k=2, v=None)


def test_sqlite_delete_that_matches_nothing_rolls_back():
    """Should storage and a validated delta ever disagree, the transaction
    is refused whole instead of being logged and announced."""
    source = make_source(SQLiteSource)
    before = observable(source)
    delta = SetDelta()
    delta.insert("Q", row(q1=7, q2=7))
    delta.delete("P", row(k=9, v=9))
    source._validate = lambda delta: None  # force the disagreement
    with pytest.raises(SourceError, match="DELETE from P matched 0 rows"):
        source.execute(delta)
    assert observable(source) == before


# ----------------------------------------------------------------------
# The in-place announcement accumulator is the rebuilt net, atom for atom
# ----------------------------------------------------------------------
_ROWS = {"P": [row(k=k, v=v) for k in range(3) for v in (0, None)],
         "Q": [row(q1=q, q2=0) for q in range(3)]}
_steps = st.lists(
    st.one_of(
        st.none(),  # take the announcement
        st.lists(
            st.tuples(st.sampled_from(["P", "Q"]), st.integers(0, 5)), min_size=1, max_size=4
        ),
    ),
    max_size=12,
)


def net_accumulate(pending, committed):
    """The net of two in-order deltas, rebuilt from scratch: opposite atoms
    of one row cancel, ``pending``'s survivors come first, then
    ``committed``'s — each relation where its first survivor lands."""
    cancelled = {(rel, r) for rel, r, n in committed.atoms() if pending.count(rel, r) == -n}
    out = SetDelta()
    for delta in (pending, committed):
        for rel, r, n in delta.atoms():
            if (rel, r) not in cancelled:
                out.add(rel, r, n)
    return out


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(steps=_steps)
def test_pending_equals_folded_net_accumulate(backend, steps):
    source = make_source(backend, initial={})
    present = set()
    expected = SetDelta()
    for step in steps:
        if step is None:
            source.take_announcement()
            expected = SetDelta()
            continue
        delta = SetDelta()
        for rel, i in step:  # flip each picked row once
            r = _ROWS[rel][i % len(_ROWS[rel])]
            if delta.count(rel, r):
                continue
            (delta.delete if (rel, r) in present else delta.insert)(rel, r)
        source.execute(delta)
        for rel, r, sign in delta.atoms():
            (present.add if sign > 0 else present.discard)((rel, r))
        expected = net_accumulate(expected, delta)
        assert list(source.pending_announcement().atoms()) == list(expected.atoms())
        assert source.has_pending_announcement() == (not expected.is_empty())


@pytest.mark.parametrize("backend", BACKENDS)
def test_commit_copies_the_delta_once(backend, monkeypatch):
    copies = []
    original = SetDelta.copy
    monkeypatch.setattr(SetDelta, "copy", lambda self: copies.append(1) or original(self))
    source = make_source(backend)
    source.insert("P", k=5, v=5)
    assert len(copies) == 1


# ----------------------------------------------------------------------
# Initial data: one value per attribute, on both backends
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("bad_row", [(3, 30, 99), (3,)])
def test_initial_row_of_the_wrong_arity_is_refused(backend, bad_row):
    """An over-long row used to lose its extra values silently in memory
    (and raise a raw driver error in SQLite); a short one must be refused
    the same way."""
    with pytest.raises(SchemaError) as excinfo:
        make_source(backend, {"P": [(1, 10), bad_row]})
    assert str(excinfo.value) == (
        f"relation 'P' has 2 attributes, got a row of {len(bad_row)} values: {bad_row!r}"
    )
