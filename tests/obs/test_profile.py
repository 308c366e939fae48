"""The cost profiler: folding, ranking, serialization, exact reconciliation.

The headline invariant is *exact* reconciliation: every count the profiler
folds from the trace stream is emitted at the same instrumentation site as
the ``MediatorStats`` counter it mirrors, so
:meth:`CostProfile.reconcile` must return ``[]`` (no tolerance) for every
workload — canned scenarios, a profiler reset mid-run, and
Hypothesis-generated interleavings alike.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import CostProfile, CostProfiler, Tracer, run_scenario, scenario_names
from repro.workloads import figure1_mediator


def fold(records):
    profiler = CostProfiler()
    for record in records:
        profiler.on_record(record)
    return profiler.profile()


def span(name, start, end, span_id=1, **attrs):
    return {
        "type": "span",
        "id": span_id,
        "parent": None,
        "name": name,
        "start": start,
        "end": end,
        "attrs": attrs,
    }


def event(name, span_id=None, **attrs):
    return {"type": "event", "id": 0, "span": span_id, "name": name, "attrs": attrs}


# ---------------------------------------------------------------------------
# Folding individual record shapes
# ---------------------------------------------------------------------------
def test_propagation_records_fold_into_node_and_edge_costs():
    profile = fold(
        [
            span("process_node", 1.0, 3.0, node="R_p"),
            event("rule_fire", child="R_p", parent="T", delta_size=4, contribution_size=6),
            event("node_apply", node="T", delta_size=6),
        ]
    )
    rp, t = profile.nodes["R_p"], profile.nodes["T"]
    assert rp.processed == 1 and rp.process_time == 2.0
    assert rp.fires_out == 1 and rp.delta_rows_out == 4
    assert rp.propagation_time == 2.0
    assert t.contribution_rows_in == 6
    assert t.applies == 1 and t.apply_rows == 6 and t.propagation_rows == 6
    edge = profile.edges[("R_p", "T")]
    assert edge.fires == 1 and edge.delta_rows == 4 and edge.contribution_rows == 6


def test_vap_and_source_records_fold():
    profile = fold(
        [
            span("poll", 0.0, 0.5, source="db1"),
            event("poll_answer", source="db1", relation="R_p", rows=7),
            event("temp_built", relation="R_p", rows=5),
            event("cache_miss", relation="R_p"),
            event("cache_hit", relation="R_p", subsumption=True),
            event("cache_invalidate", relation="R_p"),
            event("key_based", relation="R_p"),
            event("compensation", source="db1"),
        ]
    )
    node = profile.nodes["R_p"]
    assert node.polls == 1 and node.poll_rows == 7
    assert node.constructs == 1 and node.construct_rows == 5
    assert node.cache_hits == node.cache_misses == node.cache_invalidations == 1
    assert node.key_based == 1
    source = profile.sources["db1"]
    assert source.poll_spans == 1 and source.poll_time == 0.5
    assert source.polls == 1 and source.poll_rows == 7
    assert source.compensations == 1
    assert profile.cache_subsumption_hits == 1
    assert profile.compensations == 1


def test_query_latency_attributed_to_classified_refs():
    # query_classify arrives while its query span is still open; the span's
    # full duration lands on every referenced relation once it closes.
    profile = fold(
        [
            event("query_classify", span_id=42, refs=["T", "R_p"], uncovered=["R_p"]),
            span("query", 1.0, 4.0, span_id=42, rows=10, virtual=True),
            span("query", 4.0, 5.0, span_id=43, rows=2, virtual=False),
        ]
    )
    assert profile.queries.count == 2
    assert profile.queries.time == 4.0
    assert profile.queries.rows == 12
    assert profile.queries.virtual == 1 and profile.queries.materialized_only == 1
    for name in ("T", "R_p"):
        assert profile.nodes[name].queries == 1
        assert profile.nodes[name].query_time == 3.0


def test_durability_records_fold_with_per_txn_wal_attribution():
    profile = fold(
        [
            span("update_txn", 0.0, 1.0),
            event("wal_append", txn=1, bytes=100, sources=["db1"]),
            event("wal_append", txn=1, bytes=50, sources=["db2"]),
            event("wal_append", txn=2, bytes=30, sources=["db1"]),
            span("checkpoint", 1.0, 2.5, span_id=2),
            event("checkpoint_complete", id=1, full=True, nodes=3, rows=40),
        ]
    )
    assert profile.txns.count == 1 and profile.txns.time == 1.0
    dur = profile.durability
    assert dur.wal_records == 3 and dur.wal_bytes == 180
    assert dur.wal_bytes_by_txn == {1: 150, 2: 30}
    assert dur.checkpoints == 1 and dur.checkpoint_time == 1.5
    assert dur.checkpoint_rows == 40


# ---------------------------------------------------------------------------
# Ranking and the advisor contract
# ---------------------------------------------------------------------------
def test_top_ranks_by_key_with_name_ordered_ties():
    profile = fold(
        [
            span("process_node", 0.0, 3.0, span_id=1, node="B"),
            span("process_node", 3.0, 4.0, span_id=2, node="A"),
            span("process_node", 4.0, 5.0, span_id=3, node="C"),
        ]
    )
    assert profile.top(2) == [("B", 3.0), ("A", 1.0)]
    assert profile.top(10) == [("B", 3.0), ("A", 1.0), ("C", 1.0)]
    assert profile.top(10, key="processed") == [("A", 1), ("B", 1), ("C", 1)]


def test_attribute_costs_shape_is_stable():
    profile = fold(
        [
            span("process_node", 0.0, 1.0, node="T"),
            event("rule_fire", child="T", parent="U", delta_size=2, contribution_size=2),
        ]
    )
    costs = profile.attribute_costs()
    assert sorted(costs) == ["T", "U"]
    assert sorted(costs["T"]) == [
        "cache_hits",
        "cache_misses",
        "construct_rows",
        "constructs",
        "poll_rows",
        "propagation_rows",
        "propagation_time",
        "queries",
        "query_time",
        "rule_fires",
    ]
    assert costs["T"]["rule_fires"] == 1
    assert costs["T"]["propagation_time"] == 1.0


def test_serialization_is_deterministic_and_round_trips():
    records = [
        span("process_node", 0.0, 1.0, node="T"),
        event("rule_fire", child="R_p", parent="T", delta_size=1, contribution_size=1),
        event("poll_answer", source="db1", relation="R_p", rows=3),
    ]
    first, second = fold(records), fold(records)
    assert first.to_json(indent=2) == second.to_json(indent=2)
    document = json.loads(first.to_json())
    assert document["kind"] == "cost-profile" and document["version"] == 1
    assert "R_p->T" in document["edges"]
    assert document["sources"]["db1"]["poll_rows"] == 3
    assert document["attribute_costs"] == {
        name: costs for name, costs in first.attribute_costs().items()
    }


def test_unknown_record_names_are_ignored():
    profile = fold(
        [
            span("kernel", 0.0, 1.0),
            event("fault_drop", source="db1"),
        ]
    )
    assert profile == CostProfile()


# ---------------------------------------------------------------------------
# Exact reconciliation against MediatorStats
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(scenario_names()))
def test_every_canned_scenario_reconciles_exactly(name):
    tracer = Tracer(enabled=True, provenance=True)
    profiler = CostProfiler().attach(tracer)
    mediator = run_scenario(name, tracer)
    assert profiler.profile().reconcile(mediator.stats()) == []


def test_retain_free_tracer_profiles_without_accumulating_a_trace():
    tracer = Tracer(enabled=True, retain=False)
    profiler = CostProfiler().attach(tracer)
    mediator = run_scenario("ex23", tracer)
    assert tracer.record_count() == 0  # bounded memory: nothing retained
    profile = profiler.profile()
    assert profile.reconcile(mediator.stats()) == []
    assert profile.queries.count > 0 and profile.txns.count > 0


def test_attached_profiler_reconciles_and_survives_reset():
    tracer = Tracer(enabled=True, retain=False)
    profiler = CostProfiler().attach(tracer)
    mediator, sources = figure1_mediator("ex23", tracer=tracer)
    sources["db1"].insert("R", r1=9001, r2=5, r3=77, r4=100)
    mediator.refresh()
    mediator.query_relation("T")
    assert profiler.profile().reconcile(mediator.stats()) == []
    mediator.reset_stats()
    profiler.reset()  # beside reset_stats(), keeping the windows aligned
    assert profiler.profile().reconcile(mediator.stats()) == []
    sources["db2"].insert("S", s1=5, s2=888, s3=10)
    mediator.refresh()
    assert profiler.profile().reconcile(mediator.stats()) == []
    assert profiler.profile().txns.count == mediator.stats().update_transactions == 1


@settings(max_examples=25, deadline=None)
@given(
    example=st.sampled_from(["ex21", "ex22", "ex23"]),
    ops=st.lists(
        st.one_of(
            st.tuples(st.just("r"), st.integers(0, 49), st.integers(0, 999)),
            st.tuples(st.just("s"), st.integers(0, 999), st.integers(0, 99)),
            st.tuples(st.just("refresh"), st.just(0), st.just(0)),
            st.tuples(st.just("query"), st.just(0), st.just(0)),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_reconciliation_holds_for_arbitrary_interleavings(example, ops):
    """Property: whatever interleaving of source transactions, refreshes
    and queries runs, the profile's totals equal the mediator counters
    field-for-field — the trace taxonomy never drifts from the stats."""
    tracer = Tracer(enabled=True, retain=False)
    mediator, sources = figure1_mediator(example, tracer=tracer)
    mediator.reset_stats()
    profiler = CostProfiler().attach(tracer)
    counter = 70_000
    for kind, a, b in ops:
        counter += 1
        if kind == "r":
            sources["db1"].insert("R", r1=counter, r2=a, r3=b, r4=100)
        elif kind == "s":
            sources["db2"].insert("S", s1=counter, s2=a, s3=b)
        elif kind == "refresh":
            mediator.refresh()
        else:
            mediator.query_relation("T")
    mediator.refresh()
    assert profiler.profile().reconcile(mediator.stats()) == []
