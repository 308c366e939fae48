"""Unit tests for the update queue."""

from repro.core import UpdateQueue
from repro.deltas import SetDelta
from repro.relalg import row


def delta_insert(rel, **values):
    d = SetDelta()
    d.insert(rel, row(**values))
    return d


def test_enqueue_and_flush_nets_in_order():
    q = UpdateQueue()
    assert q.is_empty()
    d1 = delta_insert("R", a=1)
    d2 = SetDelta()
    d2.delete("R", row(a=1))
    q.enqueue("db1", d1, send_time=1.0, arrival_time=2.0)
    q.enqueue("db1", d2, send_time=3.0, arrival_time=4.0)
    combined, entries = q.flush()
    # Insert-then-delete across two in-order messages nets to NOTHING —
    # smash would keep a spurious deletion atom (regression for the
    # multi-message-per-flush bug found in simulation).
    assert combined.count("R", row(a=1)) == 0
    assert combined.is_empty()
    assert [e.send_time for e in entries] == [1.0, 3.0]
    assert q.is_empty()
    assert q.total_enqueued == 2
    assert q.total_flushed == 2


def test_flush_nets_delete_then_reinsert_cycle():
    q = UpdateQueue()
    d1 = SetDelta()
    d1.delete("R", row(a=1))
    q.enqueue("db1", d1)
    q.enqueue("db1", delta_insert("R", a=1))
    d3 = SetDelta()
    d3.delete("R", row(a=1))
    q.enqueue("db1", d3)
    combined, _ = q.flush()
    assert combined.count("R", row(a=1)) == -1  # odd number of flips: net delete


def test_flush_empty_queue():
    q = UpdateQueue()
    combined, entries = q.flush()
    assert combined is None
    assert entries == []


def test_pending_for_source_preserves_order_without_consuming():
    q = UpdateQueue()
    q.enqueue("db1", delta_insert("R", a=1))
    q.enqueue("db2", delta_insert("S", b=1))
    q.enqueue("db1", delta_insert("R", a=2))
    pending = q.pending_for_source("db1")
    assert len(pending) == 2
    assert pending[0].count("R", row(a=1)) == 1
    assert len(q) == 3  # not consumed


def test_last_send_time():
    q = UpdateQueue()
    assert q.last_send_time("db1") is None
    q.enqueue("db1", delta_insert("R", a=1), send_time=5.0)
    q.enqueue("db1", delta_insert("R", a=2), send_time=9.0)
    assert q.last_send_time("db1") == 9.0


def test_peek_is_a_copy():
    q = UpdateQueue()
    q.enqueue("db1", delta_insert("R", a=1))
    peeked = q.peek()
    peeked.clear()
    assert len(q) == 1


# ----------------------------------------------------------------------
# Sequenced announcements: dedup + reorder defense (faulty channels)
# ----------------------------------------------------------------------
def test_duplicate_seq_is_smashed_idempotently():
    q = UpdateQueue()
    d = delta_insert("R", a=1)
    assert q.enqueue("db1", d, seq=0) is True
    assert q.enqueue("db1", d, seq=0) is False  # retransmit of the same message
    assert q.enqueue("db1", d, seq=0) is False
    assert len(q) == 1
    assert q.duplicates_dropped == 2
    combined, entries = q.flush()
    # The net effect is ONE insert, not three: a duplicated announcement
    # must not inflate bag multiplicities downstream.
    assert combined.count("R", row(a=1)) == 1
    assert len(entries) == 1


def test_duplicate_seq_after_flush_still_dropped():
    q = UpdateQueue()
    q.enqueue("db1", delta_insert("R", a=1), seq=0)
    q.flush()
    # A stale retransmit arriving after its original was already flushed.
    assert q.enqueue("db1", delta_insert("R", a=1), seq=0) is False
    assert q.is_empty()
    assert q.duplicates_dropped == 1


def test_out_of_order_seqs_drain_in_sequence_order():
    q = UpdateQueue()
    # Source timeline: insert (seq 0) then delete (seq 1).  The channel
    # reordered them; folding in arrival order would net to a spurious
    # insert instead of nothing.
    d_del = SetDelta()
    d_del.delete("R", row(a=1))
    q.enqueue("db1", d_del, seq=1)
    q.enqueue("db1", delta_insert("R", a=1), seq=0)
    assert q.reordered_arrivals == 1
    assert [e.seq for e in q.peek()] == [0, 1]
    combined, entries = q.flush()
    assert combined.is_empty()  # insert-then-delete nets to nothing
    assert [e.seq for e in entries] == [0, 1]


def test_reorder_defense_is_per_source():
    q = UpdateQueue()
    q.enqueue("db1", delta_insert("R", a=1), seq=5)
    q.enqueue("db2", delta_insert("S", b=1), seq=0)  # lower seq, other source
    q.enqueue("db1", delta_insert("R", a=2), seq=4)  # overtook db1's seq 5
    # db2's entry is untouched by db1's reordering (cross-source arrival
    # order is irrelevant: different sources mention disjoint relations);
    # what matters is that db1's entries end up in sequence order.
    db1_seqs = [e.seq for e in q.peek() if e.source == "db1"]
    assert db1_seqs == [4, 5]
    assert sum(1 for e in q.peek() if e.source == "db2") == 1
    assert q.reordered_arrivals == 1


def test_pending_for_source_reflects_sequence_order():
    """ECA's inverse-smash reads pending deltas; they must appear in the
    source's commit order even when arrivals were shuffled."""
    q = UpdateQueue()
    q.enqueue("db1", delta_insert("R", a=2), seq=1)
    q.enqueue("db1", delta_insert("R", a=1), seq=0)
    pending = q.pending_for_source("db1")
    assert pending[0].count("R", row(a=1)) == 1
    assert pending[1].count("R", row(a=2)) == 1


def test_unsequenced_enqueues_keep_arrival_order():
    q = UpdateQueue()
    assert q.enqueue("db1", delta_insert("R", a=1)) is True
    assert q.enqueue("db1", delta_insert("R", a=1)) is True  # no seq: no dedup
    assert len(q) == 2
    assert q.duplicates_dropped == 0
    assert q.reordered_arrivals == 0


def test_requeue_front_retries_before_new_arrivals():
    q = UpdateQueue()
    q.enqueue("db1", delta_insert("R", a=1), send_time=1.0, seq=0)
    combined, entries = q.flush()
    assert combined is not None
    q.enqueue("db1", delta_insert("R", a=2), send_time=2.0, seq=1)
    q.requeue_front(entries)
    assert [e.seq for e in q.peek()] == [0, 1]
    assert q.total_requeued == 1
    # A deferred transaction is not "reflected": staleness accounting only
    # advances when the IUP kernel actually ran.
    assert q.last_flushed_send_time("db1") is None
    q.flush()


def test_mark_reflected_records_newest_send_time_per_source():
    q = UpdateQueue()
    q.enqueue("db1", delta_insert("R", a=1), send_time=1.0, seq=0)
    q.enqueue("db1", delta_insert("R", a=2), send_time=3.0, seq=1)
    q.enqueue("db2", delta_insert("S", b=1), send_time=2.0, seq=0)
    _, entries = q.flush()
    q.mark_reflected(entries)
    assert q.last_flushed_send_time("db1") == 3.0
    assert q.last_flushed_send_time("db2") == 2.0
    assert q.last_flushed_send_time("db3") is None


def test_flush_counts_compacted_delta_atoms():
    """deltas_compacted = gross flushed atoms − net atoms handed to the IUP
    (cancellation AND per-source coalescing both count as saved work)."""
    q = UpdateQueue()
    assert q.stats.deltas_compacted == 0
    # +a then -a from one source: 2 gross atoms, 0 net.
    q.enqueue("db1", delta_insert("R", a=1))
    d = SetDelta()
    d.delete("R", row(a=1))
    q.enqueue("db1", d)
    # An unrelated atom from another source: 1 gross, 1 net.
    q.enqueue("db2", delta_insert("S", b=7))
    combined, _ = q.flush()
    assert combined.atom_count() == 1
    assert q.stats.deltas_compacted == 2
    # Nothing compacted when every atom survives the fold.
    q.enqueue("db1", delta_insert("R", a=5))
    q.flush()
    assert q.stats.deltas_compacted == 2
    q.stats.reset()
    assert q.stats.deltas_compacted == 0


def test_compaction_counter_surfaces_through_mediator_stats():
    from repro.workloads import figure1_mediator

    mediator, _ = figure1_mediator("ex21")
    mediator.reset_stats()
    r = row(r1=900_000, r2=1, r3=1, r4=100)
    plus, minus = SetDelta(), SetDelta()
    plus.insert("R", r)
    minus.delete("R", r)
    mediator.enqueue_update("db1", plus)
    mediator.enqueue_update("db1", minus)
    mediator.run_update_transaction()
    assert mediator.stats().deltas_compacted == 2
