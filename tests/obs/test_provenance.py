"""Unit tests for the delta-provenance tracker."""

from repro.deltas import Delta, SetDelta
from repro.obs import ProvenanceTracker, TxnOrigin, origin_labels
from repro.relalg import row


def origin(source, txn):
    return TxnOrigin(source, txn)


def bag(relation, *entries):
    delta = Delta()
    for r, count in entries:
        delta.add(relation, r, count)
    return delta


R1 = row(r1=1, r2=5)
R2 = row(r1=2, r2=6)


def test_origin_label_and_sorting():
    a, b = origin("db1", 2), origin("db1", 10)
    assert a.label == "db1#2"
    assert sorted([b, a]) == [a, b]
    assert origin_labels({b, a}) == ["db1#2", "db1#10"]


def test_disabled_tracker_is_inert():
    prov = ProvenanceTracker(enabled=False)
    prov.begin_transaction({"R": [(origin("db1", 1), bag("R", (R1, 1)))]})
    prov.record_contribution("T", origin("db1", 1), bag("T", (R1, 1)))
    prov.commit()
    assert prov.origins_of("T") == frozenset()
    assert prov.tracked_nodes() == []


def test_leaf_attribution_and_commit():
    prov = ProvenanceTracker(enabled=True)
    prov.begin_transaction(
        {
            "R": [
                (origin("db1", 1), bag("R", (R1, 1))),
                (origin("db1", 2), bag("R", (R2, 1))),
            ]
        }
    )
    assert prov.live_origins("R") == {origin("db1", 1), origin("db1", 2)}
    prov.commit()
    assert prov.origins_of("R") == {origin("db1", 1), origin("db1", 2)}
    assert prov.tracked_nodes() == ["R"]
    assert not prov.is_approx("R")


def test_cross_origin_cancellation_keeps_both_origins():
    """An insert and a delete of the same row from different transactions
    net to an empty leaf delta, but both transactions stay in the origin
    set (each alone would have changed the node)."""
    prov = ProvenanceTracker(enabled=True)
    prov.begin_transaction(
        {
            "R": [
                (origin("db1", 1), bag("R", (R1, 1))),
                (origin("db1", 2), bag("R", (R1, -1))),
            ]
        }
    )
    assert prov.live_origins("R") == {origin("db1", 1), origin("db1", 2)}
    # ... and the per-origin sub-deltas survive for downstream re-firing.
    subs = dict(prov.sub_deltas("R"))
    assert list(subs[origin("db1", 1)].atoms()) == [("R", R1, 1)]
    assert list(subs[origin("db1", 2)].atoms()) == [("R", R1, -1)]


def test_within_origin_cancellation_drops_the_origin():
    prov = ProvenanceTracker(enabled=True)
    prov.begin_transaction(
        {"R": [(origin("db1", 1), bag("R", (R1, 1), (R1, -1)))]}
    )
    assert prov.live_origins("R") == frozenset()
    assert prov.sub_deltas("R") == []


def test_empty_contribution_does_not_attribute():
    prov = ProvenanceTracker(enabled=True)
    prov.begin_transaction({"R": [(origin("db1", 1), bag("R", (R1, 1)))]})
    prov.record_contribution("T", origin("db1", 1), Delta())
    prov.commit()
    # The node is tracked (a firing touched it) but no origin is blamed.
    assert prov.origins_of("T") == frozenset()


def test_set_delta_contribution_uses_signs():
    prov = ProvenanceTracker(enabled=True)
    delta = SetDelta()
    delta.insert("R", R1)
    delta.delete("R", R2)
    prov.record_contribution("R", origin("db1", 1), delta)
    counts = prov._counts["R"][origin("db1", 1)]
    assert counts == {R1: 1, R2: -1}


def test_note_origins_and_mark_approx():
    prov = ProvenanceTracker(enabled=True)
    prov.note_origins("G", [origin("db1", 1), origin("db2", 1)])
    prov.mark_approx("G")
    assert prov.live_approx("G")
    prov.commit()
    assert prov.origins_of("G") == {origin("db1", 1), origin("db2", 1)}
    assert prov.is_approx("G")


def test_commit_overwrites_only_touched_nodes():
    prov = ProvenanceTracker(enabled=True)
    prov.record_contribution("T", origin("db1", 1), bag("T", (R1, 1)))
    prov.mark_approx("T")
    prov.commit()
    # Second transaction touches only S': T keeps its committed record.
    prov.record_contribution("S_p", origin("db2", 1), bag("S_p", (R2, 1)))
    prov.commit()
    assert prov.origins_of("T") == {origin("db1", 1)}
    assert prov.is_approx("T")
    assert prov.origins_of("S_p") == {origin("db2", 1)}
    # A third transaction touching T exactly clears the approx flag.
    prov.record_contribution("T", origin("db1", 2), bag("T", (R2, 1)))
    prov.commit()
    assert prov.origins_of("T") == {origin("db1", 2)}
    assert not prov.is_approx("T")


def test_row_counts_expose_signed_history():
    prov = ProvenanceTracker(enabled=True)
    prov.record_contribution("R", origin("db1", 1), bag("R", (R1, 1), (R2, -1)))
    prov.commit()
    assert prov.row_counts("R") == {origin("db1", 1): {R1: 1, R2: -1}}


def test_clear_forgets_everything():
    prov = ProvenanceTracker(enabled=True)
    prov.record_contribution("R", origin("db1", 1), bag("R", (R1, 1)))
    prov.commit()
    prov.clear()
    assert prov.tracked_nodes() == []
    assert prov.origins_of("R") == frozenset()
