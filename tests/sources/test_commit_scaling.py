"""The shape of a SQLite commit, not its milliseconds.

A one-row update must cost the same engine work at any source size: no
Python snapshot, and a SQLite VM-step count that stays flat from |R| = 1 000
to |R| = 100 000 because every validation probe and every write is an index
search.
"""

import pytest

from repro.relalg import make_schema
from repro.sources import SQLiteSource

KEYED = make_schema("R", ["r1", "r2", "r3", "r4"], key=["r1"])
KEYLESS = make_schema("L", ["a", "b"])


def make_source(size):
    rows = [(i, i % 97, i % 1000, 100) for i in range(size)]
    return SQLiteSource("db1", [KEYED], initial={"R": rows})


def vm_steps_of_one_row_update(source, k):
    """VM instructions SQLite executes for one update commit (exact: the
    progress handler fires every instruction)."""
    steps = [0]

    def tick():
        steps[0] += 1
        return 0

    source._conn.set_progress_handler(tick, 1)
    try:
        source.update(
            "R",
            old=dict(r1=k, r2=k % 97, r3=k % 1000, r4=100),
            new=dict(r1=k, r2=k % 97, r3=k % 1000, r4=200),
        )
    finally:
        source._conn.set_progress_handler(None, 1)
    return steps[0]


def test_one_row_commit_never_snapshots_and_is_flat_in_source_size(monkeypatch):
    def no_snapshot(self):
        raise AssertionError("a commit must not snapshot the source")

    monkeypatch.setattr(SQLiteSource, "_snapshot", no_snapshot)
    steps = {}
    for size in (1_000, 100_000):
        source = make_source(size)
        try:
            k = size // 2
            steps[size] = vm_steps_of_one_row_update(source, k)
            assert source.txn_count == 1
            assert source._conn.execute(
                "SELECT count(*), sum(r4 = 200) FROM R"
            ).fetchone() == (size, 1)
        finally:
            source.close()
    assert 0 < steps[1_000]
    assert steps[100_000] < 2 * steps[1_000], steps


def test_vm_step_count_repeats_exactly():
    counts = set()
    for _ in range(3):
        source = make_source(1_000)
        try:
            counts.add(vm_steps_of_one_row_update(source, 500))
        finally:
            source.close()
    assert len(counts) == 1


@pytest.mark.parametrize("schema, values", [(KEYED, (7, 7, 7, 100)), (KEYLESS, (7, None))])
def test_existence_probe_and_delete_search_an_index(schema, values):
    source = SQLiteSource("db1", [schema])
    try:
        row_sql = source._row_sql[schema.name]
        details = {}
        for sql in (row_sql.probe, row_sql.delete):
            plan = source._conn.execute("EXPLAIN QUERY PLAN " + sql, values).fetchall()
            details[sql] = " ".join(str(step[-1]) for step in plan)
            assert "SEARCH" in details[sql] and "SCAN" not in details[sql]
        if not schema.key:
            # No primary key to search: the UNIQUE autoindex answers alone.
            assert "USING COVERING INDEX" in details[row_sql.probe]
    finally:
        source.close()
