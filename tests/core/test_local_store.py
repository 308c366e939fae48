"""Unit tests for the mediator's local store."""

import pytest

from repro.core import LocalStore, annotate
from repro.deltas import BagDelta, SetDelta
from repro.errors import MediatorError
from repro.relalg import SetRelation, row
from repro.workloads import figure1_schemas, figure1_vdp


def leaf_values():
    schemas = figure1_schemas()
    return {
        "R": SetRelation.from_values(
            schemas["R"], [(1, 10, 7, 100), (2, 20, 8, 100), (3, 10, 9, 999)]
        ),
        "S": SetRelation.from_values(schemas["S"], [(10, 42, 5), (20, 43, 99)]),
    }


def make_store(overrides=None):
    annotated = annotate(figure1_vdp(), overrides or {})
    store = LocalStore(annotated)
    store.initialize(leaf_values())
    return store


def test_initialize_populates_bottom_up():
    store = make_store()
    assert store.initialized
    assert store.repo("R_p").cardinality() == 2  # r4=100 rows only
    assert store.repo("S_p").cardinality() == 1  # s3<50 row only
    assert store.repo("T").to_sorted_list() == [((1, 7, 10, 42), 1)]


def test_fully_virtual_nodes_store_nothing():
    store = make_store({"R_p": "[r1^v, r2^v, r3^v]"})
    assert not store.has_repo("R_p")
    with pytest.raises(MediatorError):
        store.repo("R_p")
    # T was still computable through the transient value.
    assert store.repo("T").cardinality() == 1


def test_hybrid_node_stores_projection():
    store = make_store({"T": "[r1^m, r3^v, s1^m, s2^v]"})
    t = store.repo("T")
    assert t.schema.attribute_names == ("r1", "s1")
    assert t.to_sorted_list() == [((1, 10), 1)]
    assert store.stored_schema("T").attribute_names == ("r1", "s1")


def test_missing_leaf_value_rejected():
    annotated = annotate(figure1_vdp(), {})
    store = LocalStore(annotated)
    with pytest.raises(MediatorError):
        store.initialize({"R": leaf_values()["R"]})


def test_delta_accumulation_and_clear():
    store = make_store()
    assert not store.has_pending_delta("T")
    d = BagDelta.from_counts("T", {row(r1=9, r3=9, s1=9, s2=9): 1})
    store.accumulate("T", d)
    assert store.has_pending_delta("T")
    assert store.pending_nodes() == ("T",)
    store.clear_delta("T")
    assert not store.has_pending_delta("T")


def test_accumulate_converts_delta_kinds():
    store = make_store()
    sd = SetDelta()
    sd.insert("T", row(r1=9, r3=9, s1=9, s2=9))
    store.accumulate("T", sd)  # set delta into a bag node
    assert store.delta("T").count("T", row(r1=9, r3=9, s1=9, s2=9)) == 1


def test_apply_delta_projects_for_hybrid_nodes():
    store = make_store({"T": "[r1^m, r3^v, s1^m, s2^v]"})
    d = BagDelta.from_counts("T", {row(r1=5, r3=1, s1=10, s2=42): 1})
    store.apply_delta("T", d)
    assert store.repo("T").count(row(r1=5, s1=10)) == 1


def test_apply_delta_on_virtual_node_is_noop():
    store = make_store({"R_p": "[r1^v, r2^v, r3^v]"})
    d = BagDelta.from_counts("R_p", {row(r1=5, r2=1, r3=1): 1})
    store.apply_delta("R_p", d)  # no repo; must not raise


def test_space_accounting():
    store = make_store()
    rows = store.total_stored_rows()
    cells = store.total_stored_cells()
    assert rows == 2 + 1 + 1
    assert cells == 2 * 3 + 1 * 2 + 1 * 4


def test_normalize_set_delta():
    from repro.core import annotate as _annotate
    from repro.workloads import figure4_schemas, figure4_vdp

    annotated = _annotate(figure4_vdp(), {})
    store = LocalStore(annotated)
    schemas = figure4_schemas()
    store.initialize(
        {
            "A": SetRelation.from_values(schemas["A"], [(1, 1)]),
            "B": SetRelation.from_values(schemas["B"], [(2, 10)]),
            "C": SetRelation.from_values(schemas["C"], []),
            "D": SetRelation.from_values(schemas["D"], []),
        }
    )
    g = store.repo("G")
    assert g.contains(row(a1=1, b1=2))
    d = SetDelta()
    d.insert("G", row(a1=1, b1=2))   # redundant insert
    d.delete("G", row(a1=9, b1=9))   # redundant delete
    normalized = store.normalize_set_delta("G", d)
    assert normalized.is_empty()
    # Both dropped atoms count as smashed net-effect compaction.
    assert store.stats.deltas_smashed == 2


def test_accumulate_counts_smashed_atoms():
    store = make_store()
    assert store.stats.deltas_smashed == 0
    r = row(r1=9, r3=9, s1=9, s2=9)
    store.accumulate("T", BagDelta.from_counts("T", {r: 1}))
    assert store.stats.deltas_smashed == 0  # nothing to cancel yet
    store.accumulate("T", BagDelta.from_counts("T", {r: -1}))
    # +1 and -1 annihilate: two gross entries, zero net.
    assert store.stats.deltas_smashed == 2
    assert not store.has_pending_delta("T")


def test_storage_metrics_per_node():
    store = make_store()
    metrics = store.storage_metrics()
    by_node = {m["node"]: m for m in metrics}
    assert set(by_node) == {"R_p", "S_p", "T"}
    assert by_node["R_p"]["rows_stored"] == 2
    assert by_node["T"]["rows_stored"] == 1
    assert by_node["T"]["distinct_rows"] == 1
    assert by_node["T"]["estimated_bytes"] > 0
    assert store.total_stored_bytes() == sum(
        m["estimated_bytes"] for m in metrics
    )
