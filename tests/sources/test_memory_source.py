"""Unit tests for the in-memory source database."""

import pytest

from repro.deltas import LeafParentFilter, SetDelta
from repro.errors import SourceError
from repro.relalg import eq, lt, make_schema, row, scan

from repro.sources import MemorySource

R = make_schema("R", ["r1", "r2"], key=["r1"])
S = make_schema("S", ["s1"], key=["s1"])


def make_source():
    return MemorySource("db1", [R, S], initial={"R": [(1, 10), (2, 20)], "S": [(7,)]})


def test_initial_state():
    src = make_source()
    assert src.relation("R").cardinality() == 2
    assert src.relation("S").contains(row(s1=7))


def test_unknown_initial_relation_rejected():
    with pytest.raises(SourceError):
        MemorySource("bad", [R], initial={"ZZ": [(1,)]})


def test_duplicate_schema_names_rejected():
    with pytest.raises(SourceError):
        MemorySource("bad", [R, R])


def test_insert_delete_update_convenience():
    src = make_source()
    src.insert("R", r1=3, r2=30)
    assert src.relation("R").contains(row(r1=3, r2=30))
    src.delete("R", r1=3, r2=30)
    assert not src.relation("R").contains(row(r1=3, r2=30))
    src.update("R", {"r1": 1, "r2": 10}, {"r1": 1, "r2": 11})
    assert src.relation("R").contains(row(r1=1, r2=11))


def test_redundant_operations_rejected():
    src = make_source()
    with pytest.raises(SourceError):
        src.insert("R", r1=1, r2=10)  # already present
    with pytest.raises(SourceError):
        src.delete("R", r1=99, r2=99)  # absent
    with pytest.raises(SourceError):
        src.insert("ZZ", x=1)


def test_transaction_is_atomic_net_delta():
    src = make_source()
    d = SetDelta()
    d.delete("R", row(r1=1, r2=10))
    d.insert("R", row(r1=1, r2=99))
    d.insert("S", row(s1=8))
    txn = src.execute(d)
    assert txn == 1
    assert src.relation("R").contains(row(r1=1, r2=99))
    assert src.relation("S").contains(row(s1=8))
    assert len(src.log()) == 1


def test_announcements_are_net_and_single_message():
    src = make_source()
    assert src.take_announcement() is None
    src.insert("R", r1=3, r2=30)
    src.delete("R", r1=3, r2=30)  # insert-then-delete cancels to nothing
    src.insert("S", s1=9)
    ann = src.take_announcement()
    assert ann.count("R", row(r1=3, r2=30)) == 0
    assert ann.count("S", row(s1=9)) == 1
    assert src.take_announcement() is None
    assert not src.has_pending_announcement()


def test_announcement_delete_then_reinsert_same_row_cancels():
    src = make_source()
    src.delete("R", r1=1, r2=10)
    src.insert("R", r1=1, r2=10)
    assert src.take_announcement() is None


def test_announcement_net_delete_survives_reinsert_cycle():
    src = make_source()
    src.delete("R", r1=1, r2=10)
    src.insert("R", r1=1, r2=10)
    src.delete("R", r1=1, r2=10)
    ann = src.take_announcement()
    assert ann.count("R", row(r1=1, r2=10)) == -1


def test_query_runs_algebra():
    src = make_source()
    out = src.query(scan("R").select(lt("r2", 15)).project(["r1"]))
    assert out.to_sorted_list() == [((1,), 1)]
    assert src.query_count == 1


def test_query_unknown_relation_rejected():
    src = make_source()
    with pytest.raises(SourceError):
        src.query(scan("NOPE"))


def test_on_commit_hooks_fire():
    src = make_source()
    seen = []
    src.on_commit(lambda s, d: seen.append((s.name, d.atom_count())))
    src.insert("S", s1=100)
    assert seen == [("db1", 1)]


def test_prefilter_keeps_relevant_atoms_only():
    src = make_source()
    src.set_prefilters([LeafParentFilter("Rp", "R", lt("r2", 15))])
    src.insert("R", r1=5, r2=5)    # relevant
    src.insert("R", r1=6, r2=600)  # irrelevant to every filter on R
    src.insert("S", s1=50)         # unfiltered relation: kept
    ann = src.take_announcement()
    assert ann.count("R", row(r1=5, r2=5)) == 1
    assert ann.count("R", row(r1=6, r2=600)) == 0
    assert ann.count("S", row(s1=50)) == 1


def test_snapshot_is_isolated_copy():
    src = make_source()
    snap = src.state()
    snap["R"].insert(row(r1=999, r2=999))
    assert not src.relation("R").contains(row(r1=999, r2=999))
