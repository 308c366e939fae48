"""Warm restart: the local store survives as a checkpoint and catches up.

A mediator is saved by attaching durability to a fresh directory (a base
checkpoint of its current state, mid-stream or not) and restored by
recovering from that directory with ``on_stale="raise"``: only the updates
committed since the checkpoint are replayed, from the sources' own logs.
"""

import json
import os

import pytest

from repro.core import annotate
from repro.correctness import assert_view_correct
from repro.durability import DurabilityManager, RecoveryManager
from repro.errors import MediatorError
from repro.generator import (
    build_annotated_from_spec,
    generate_mediator,
    make_federation,
    make_sources,
)
from repro.workloads import (
    FIGURE1_ANNOTATIONS,
    figure1_mediator,
    figure1_vdp,
    figure4_mediator,
    figure4_vdp,
    union_mediator,
    union_vdp,
)


def checkpoint_into(mediator, tmp_path):
    """A base checkpoint of the mediator as it is; returns the directory."""
    directory = str(tmp_path / "dur")
    DurabilityManager.attach(mediator, directory).close()
    return directory


def recover_from(annotated, sources, directory):
    return RecoveryManager(directory).recover(annotated, sources, on_stale="raise").mediator


@pytest.mark.parametrize("example", ["ex21", "ex23"])
def test_save_and_restore_roundtrip(tmp_path, example):
    mediator, sources = figure1_mediator(example, seed=91)
    directory = str(tmp_path / "dur")
    manager = DurabilityManager.attach(mediator, directory)
    manager.close()
    assert manager.stats.checkpoint_rows > 0

    annotated = annotate(figure1_vdp(), FIGURE1_ANNOTATIONS[example])
    restored = recover_from(annotated, sources, directory)
    assert restored.query_relation("T") == mediator.query_relation("T")
    assert_view_correct(restored)


def test_restore_catches_up_from_source_logs(tmp_path):
    mediator, sources = figure1_mediator("ex21", seed=92)
    directory = checkpoint_into(mediator, tmp_path)

    # The mediator "goes down"; sources keep committing.
    sources["db1"].insert("R", r1=95_001, r2=1, r3=1, r4=100)
    sources["db2"].insert("S", s1=1, s2=5, s3=5)
    sources["db1"].insert("R", r1=95_002, r2=2, r3=2, r4=100)
    sources["db1"].delete("R", r1=95_002, r2=2, r3=2, r4=100)  # nets away

    annotated = annotate(figure1_vdp(), FIGURE1_ANNOTATIONS["ex21"])
    restored = recover_from(annotated, sources, directory)
    assert_view_correct(restored)
    # The restart replayed only the missed updates, not a full reload.
    assert restored.iup.stats.transactions == 1


def test_restore_does_not_double_apply_pending_announcements(tmp_path):
    mediator, sources = figure1_mediator("ex21", seed=93)
    directory = checkpoint_into(mediator, tmp_path)
    sources["db1"].insert("R", r1=96_000, r2=1, r3=1, r4=100)

    annotated = annotate(figure1_vdp(), FIGURE1_ANNOTATIONS["ex21"])
    restored = recover_from(annotated, sources, directory)
    assert_view_correct(restored)
    # A later refresh finds nothing new to deliver.
    result = restored.refresh()
    assert result.flushed_messages == 0
    assert_view_correct(restored)


def test_save_mid_stream_restores_exactly(tmp_path):
    """A non-quiescent save is legal: queued and unannounced updates are
    not part of the snapshot, and restore recovers them from the source
    logs past the saved cursors — no loss, no double-apply."""
    mediator, sources = figure1_mediator("ex21", seed=94)
    # One update announced-and-queued but NOT propagated, one still
    # unannounced at the source: maximum mid-stream-ness.
    sources["db1"].insert("R", r1=97_000, r2=1, r3=1, r4=100)
    mediator.collect_announcements()
    sources["db2"].insert("S", s1=2, s2=7, s3=7)
    directory = checkpoint_into(mediator, tmp_path)

    annotated = annotate(figure1_vdp(), FIGURE1_ANNOTATIONS["ex21"])
    restored = recover_from(annotated, sources, directory)
    assert_view_correct(restored)
    # Catch-up was incremental (one transaction) and complete: a further
    # refresh finds nothing to deliver.
    assert restored.iup.stats.transactions == 1
    assert restored.refresh().flushed_messages == 0


def test_restore_rejects_annotation_mismatch(tmp_path):
    mediator, sources = figure1_mediator("ex21", seed=95)
    directory = checkpoint_into(mediator, tmp_path)
    other = annotate(figure1_vdp(), FIGURE1_ANNOTATIONS["ex23"])
    with pytest.raises(MediatorError):
        recover_from(other, sources, directory)


def test_restore_with_set_nodes(tmp_path):
    mediator, sources = figure4_mediator("paper", seed=96)
    directory = checkpoint_into(mediator, tmp_path)
    sources["dbC"].insert("C", c1=900, c2=3)
    annotated = annotate(
        figure4_vdp(),
        {"B_p": "[b1^v, b2^v]", "E": "[a1^m, a2^v, b1^m]", "F": "[a1^v, b1^v]"},
    )
    restored = recover_from(annotated, sources, directory)
    assert_view_correct(restored)


def test_roundtrip_preserves_bag_multiplicity(tmp_path):
    """Bag nodes keep their exact multiplicities through the snapshot.

    The union scenario's regions have disjoint oids by construction, so a
    west insert colliding with an east row's (o, c, a) projection is the
    cheapest way to force a genuine multiplicity-2 row in ``all_orders``.
    """
    mediator, sources = union_mediator(seed=97)
    east = sources["east"].state()["orders_east"].to_sorted_list()
    row = next(v for v, _ in east if v[2] > 100)
    sources["west"].insert("orders_west", oid=row[0], cust=row[1], amount=row[2])
    mediator.refresh()
    original = mediator.store.repo("all_orders")
    assert any(n > 1 for _, n in original.to_sorted_list())

    directory = checkpoint_into(mediator, tmp_path)
    restored = recover_from(annotate(union_vdp(), {}), sources, directory)
    back = restored.store.repo("all_orders")
    assert back.is_bag and original.is_bag
    assert back.to_sorted_list() == original.to_sorted_list()


def test_roundtrip_preserves_set_kind(tmp_path):
    """Set nodes (figure 4's difference export ``G``) come back as sets —
    multiplicity-1 rows under set semantics, not bags."""
    mediator, sources = figure4_mediator("paper", seed=97)
    directory = checkpoint_into(mediator, tmp_path)
    annotated = annotate(
        figure4_vdp(),
        {"B_p": "[b1^v, b2^v]", "E": "[a1^m, a2^v, b1^m]", "F": "[a1^v, b1^v]"},
    )
    restored = recover_from(annotated, sources, directory)
    saw_set = False
    for name in mediator.annotated.nodes_with_storage():
        original = mediator.store.repo(name)
        back = restored.store.repo(name)
        assert back.is_bag == original.is_bag
        assert back.to_sorted_list() == original.to_sorted_list()
        saw_set = saw_set or not original.is_bag
    # figure 4's G is a set node; the scenario must exercise the set path.
    assert saw_set


# ---------------------------------------------------------------------------
# A source detached between the checkpoint and the restart
# ---------------------------------------------------------------------------
def _federation_checkpoint(tmp_path):
    """A 4-source federation checkpoint whose s002 (curated, joined to
    s001) will be detached before the restart — its materialized
    leaf-parent and join repo become orphans, and so does its cursor."""
    fed = make_federation(4, seed=21)
    sources = make_sources(fed.spec_text_for(), fed.initial_data())
    mediator = generate_mediator(fed.spec_text_for(), sources)
    directory = checkpoint_into(mediator, tmp_path)
    survivors = [n for n in fed.names if n != "s002"]
    annotated = build_annotated_from_spec(fed.spec_text_for(survivors))
    kept = {n: sources[n] for n in survivors}
    return fed, sources, annotated, kept, directory


def test_restore_drops_orphan_state_by_default(tmp_path):
    fed, sources, annotated, kept, directory = _federation_checkpoint(tmp_path)
    restored = recover_from(annotated, kept, directory)
    assert "s002" not in restored.sources
    assert fed.leaf_parent("s002") not in restored.vdp.nodes
    assert_view_correct(restored)
    # The shrunken mediator equals one generated from scratch over the
    # surviving members — orphan images must not leak into survivors.
    fresh = generate_mediator(fed.spec_text_for(sorted(kept)), kept)
    for export in sorted(fresh.vdp.exports):
        assert restored.query_relation(export) == fresh.query_relation(export)


def test_restore_drop_orphans_then_catches_up(tmp_path):
    fed, sources, annotated, kept, directory = _federation_checkpoint(tmp_path)
    # Survivors keep committing after the checkpoint; the detached source
    # does too, but its log must simply be ignored.
    k, a, b = fed.attributes("s000")
    kept["s000"].insert(fed.relation("s000"), **{k: 999, a: 1, b: 1})
    k2, a2, b2 = fed.attributes("s002")
    sources["s002"].insert(fed.relation("s002"), **{k2: 999, a2: 1, b2: 1})
    restored = recover_from(annotated, kept, directory)
    assert_view_correct(restored)
    values = {v for v, _ in restored.query_relation(fed.leaf_parent("s000")).to_sorted_list()}
    assert (999, 1, 1) in values


def test_restore_missing_nodes_is_an_error_even_with_drop(tmp_path):
    """Orphans (checkpoint ⊃ federation) are dropped; missing nodes
    (checkpoint ⊂ federation) never are — the repositories can't be conjured."""
    fed = make_federation(4, seed=21)
    survivors = [n for n in fed.names if n != "s002"]
    sources = make_sources(fed.spec_text_for(), fed.initial_data())
    kept = {n: sources[n] for n in survivors}
    mediator = generate_mediator(fed.spec_text_for(survivors), kept)
    directory = checkpoint_into(mediator, tmp_path)
    annotated = build_annotated_from_spec(fed.spec_text_for())
    with pytest.raises(MediatorError):
        recover_from(annotated, sources, directory)


def test_restore_rejects_column_order_mismatch(tmp_path):
    """A checkpoint written under a different attribute order than the
    annotation now declares must be refused, not silently transposed."""
    mediator, sources = figure1_mediator("ex21", seed=98)
    directory = checkpoint_into(mediator, tmp_path)
    (name,) = [n for n in os.listdir(directory) if n.startswith("ckpt-")]
    with open(os.path.join(directory, name), encoding="utf-8") as fh:
        payload = json.load(fh)
    image = payload["nodes"]["T"]
    image["columns"] = list(reversed(image["columns"]))
    with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
        json.dump(payload, fh)

    annotated = annotate(figure1_vdp(), FIGURE1_ANNOTATIONS["ex21"])
    with pytest.raises(MediatorError, match="columns"):
        recover_from(annotated, sources, directory)
