"""Golden bytes of the write-ahead log for one small canned durable run.

The WAL encodes each source's net delta as ``[relation, row, sign]``
atoms, in the order the announcement and queue folds leave them.  Replay,
shipping and recovery all read that order back, so the bytes are pinned:
a change to the delta encoding (signs must stay ``+1`` / ``-1``) or to the
fold order (a relation emptied by cancellation re-enters at the end) shows
up here as a different digest.
"""

import hashlib

from repro.deltas import SetDelta
from repro.durability import CheckpointPolicy, DurabilityManager, WriteAheadLog
from repro.relalg import Row, make_schema
from repro.sources import MemorySource
from repro.workloads import figure1_mediator
from repro.workloads.scenarios import figure1_schemas, figure1_sources

#: sha256 of the canned run's WAL file.
GOLDEN_SHA256 = "5b9b338800527ef63e9f09d1e5015fa567c6a4f35b9ca733bc1bb97c4bb37352"


def _r(r1, r2=3, r3=5, r4=100):
    return {"r1": r1, "r2": r2, "r3": r3, "r4": r4}


def canned_run(directory):
    """Commits covering inserts, deletes, updates, a source-side fold that
    empties and refills a relation, a queue fold of two messages from one
    source, and a relation the VDP does not integrate (``X``)."""
    seeded = figure1_sources(r_rows=20, s_rows=10, seed=5)
    x_schema = make_schema("X", ["x1", "x2"])
    db1 = MemorySource(
        "db1",
        [figure1_schemas()["R"], x_schema],
        initial={"R": [(r["r1"], r["r2"], r["r3"], r["r4"]) for r in seeded["db1"].relation("R").rows()]},
    )
    db2 = seeded["db2"]
    mediator, _ = figure1_mediator("ex21", sources={"db1": db1, "db2": db2})
    manager = DurabilityManager.attach(
        mediator, directory, policy=CheckpointPolicy(every_txns=0, every_wal_bytes=0)
    )

    db1.insert("R", **_r(1000))
    mediator.refresh()

    db1.update("R", _r(1000), _r(1000, r3=6))
    db2.insert("S", s1=3, s2=40, s3=10)
    mediator.refresh()

    # Source-side fold: R is emptied by cancellation and refilled, so it
    # re-enters the net announcement after X.
    db1.insert("R", **_r(1001))
    db1.insert("X", x1=1, x2=2)
    swap = SetDelta()
    swap.delete("R", Row(_r(1001)))
    swap.insert("R", Row(_r(1002, r4=200)))
    db1.execute(swap)
    mediator.refresh()

    # Queue fold: two messages from db1 in one update transaction, the
    # second cancelling atoms of the first.
    db1.insert("R", **_r(1003))
    db1.delete("X", x1=1, x2=2)
    mediator.collect_announcements()
    undo = SetDelta()
    undo.delete("R", Row(_r(1003)))
    undo.insert("X", Row({"x1": 4, "x2": 5}))
    undo.insert("R", Row(_r(1004, r2=7)))
    db1.execute(undo)
    mediator.collect_announcements()
    mediator.run_update_transaction()

    db1.delete("R", **_r(1002, r4=200))
    db2.delete("S", s1=3, s2=40, s3=10)
    mediator.refresh()
    manager.close()
    return manager.wal.path


def test_wal_bytes_of_canned_run_are_pinned(tmp_path):
    path = canned_run(str(tmp_path))
    data = open(path, "rb").read()
    records = WriteAheadLog.read_records(path)
    assert [r.txn for r in records] == [1, 2, 3, 4, 5]
    assert hashlib.sha256(data).hexdigest() == GOLDEN_SHA256
