"""End-to-end trace acceptance: span trees, schema validation, provenance.

The ex23 scenario (Figure 1 under Example 2.3 — hybrid ``T``, virtual
auxiliaries) is the acceptance workload: its trace must contain a complete
span tree for at least one update transaction and one virtual query, every
exported record must validate against the checked-in schema, and every
cache-invalidation event must carry a non-empty origin set that matches
what a from-scratch recomputation says actually changed.
"""

import pytest

from repro.correctness import recompute_all
from repro.deltas import SetDelta
from repro.obs import (
    Tracer,
    TraceValidationError,
    export_jsonl,
    load_schema,
    run_scenario,
    scenario_names,
    validate_jsonl_file,
    validate_records,
)
from repro.relalg import row
from repro.workloads import figure1_mediator, figure1_sources
from repro.workloads.scenarios import figure1_vdp


@pytest.fixture(scope="module")
def ex23_trace():
    tracer = Tracer(enabled=True, provenance=True)
    mediator = run_scenario("ex23", tracer)
    return tracer, mediator


def spans_named(roots, name, out=None):
    out = [] if out is None else out
    for node in roots:
        if node.get("type") == "span":
            if node["name"] == name:
                out.append(node)
            spans_named(node["children"], name, out)
    return out


def events_named(roots, name):
    found = []

    def walk(node):
        for event in node.get("events", ()):
            if event["name"] == name:
                found.append(event)
        for child in node.get("children", ()):
            walk(child)

    for root in roots:
        if root.get("type") == "span":
            walk(root)
    return found


# ---------------------------------------------------------------------------
# Span-tree completeness
# ---------------------------------------------------------------------------
def test_update_transaction_span_tree_complete(ex23_trace):
    tracer, _ = ex23_trace
    tree = tracer.span_tree()
    txns = spans_named(tree, "update_txn")
    assert txns, "no update transaction span recorded"
    txn = txns[-1]
    child_names = [c["name"] for c in txn["children"]]
    assert "queue_flush" in child_names
    assert "kernel" in child_names
    fires = events_named([txn], "rule_fire")
    assert fires, "update transaction fired no rules"
    for fire in fires:
        assert "child" in fire["attrs"] and "parent" in fire["attrs"]
        assert fire["attrs"]["delta_size"] >= 0  # delta sizes per firing
    assert txn["end"] is not None


def test_virtual_query_span_tree_complete(ex23_trace):
    tracer, _ = ex23_trace
    tree = tracer.span_tree()
    virtual = [
        q for q in spans_named(tree, "query") if q["attrs"].get("virtual")
    ]
    assert virtual, "no virtual query recorded"
    query = virtual[0]
    assert spans_named([query], "vap_plan")
    assert spans_named([query], "vap_construct")
    assert spans_named([query], "query_evaluate")
    construct = spans_named([query], "vap_construct")[0]
    polls = spans_named([construct], "poll")
    assert polls, "virtual query polled no sources"
    for poll in polls:
        assert poll["attrs"]["source"] in ("db1", "db2")
        assert poll["end"] >= poll["start"]
    assert events_named([query], "query_classify")


def test_evaluation_spans_say_what_a_query_read():
    """``rows_scanned`` / ``rows_out`` on ``query_evaluate`` (and on the VAP's
    construct evaluation) are the ``EvalCounters`` difference over the span,
    and ``access`` says how each σ read its relation: a materialized range
    query reads only the rows its range selects from ``T``'s ordered index
    ("range"); a σ that does not start with a range conjunct reads every
    stored row ("scan")."""
    tracer = Tracer(enabled=True)
    mediator, _ = figure1_mediator("ex23", tracer=tracer)
    stored = mediator.store.repo("T").cardinality()
    before = mediator.store.counters.rows_scanned
    answer = mediator.query("project[r1, s1](select[r1 >= 20 and r1 < 60](T))")
    evaluate = spans_named(tracer.span_tree(), "query_evaluate")[-1]
    in_range = answer.cardinality()  # every row in the range survives
    assert evaluate["attrs"] == {"rows_scanned": in_range, "rows_out": in_range, "access": ["range"]}
    assert mediator.store.counters.rows_scanned - before == in_range
    assert 0 < in_range < stored

    before = mediator.store.counters.rows_scanned
    scanned = mediator.query("project[r1, s1](select[r1 + 0 >= 20 and r1 < 60](T))")
    evaluate = spans_named(tracer.span_tree(), "query_evaluate")[-1]
    assert scanned == answer
    assert evaluate["attrs"] == {"rows_scanned": stored, "rows_out": in_range, "access": ["scan"]}
    assert mediator.store.counters.rows_scanned - before == stored

    before = mediator.store.counters.rows_scanned
    virtual = mediator.query("project[r1, r3, s1](select[r1 >= 20 and r1 < 60](T))")
    query = spans_named(tracer.span_tree(), "query")[-1]
    construct = spans_named([query], "vap_construct")[0]
    evaluate = spans_named([query], "query_evaluate")[0]
    polled = events_named([construct], "temp_built")[0]["attrs"]
    assert polled["strategy"] == "poll"
    # The σ below the key-based join reads T's range; the join's other side, the poll answer.
    assert construct["attrs"]["rows_scanned"] == in_range + polled["rows"]
    assert construct["attrs"]["rows_out"] == virtual.cardinality()
    assert construct["attrs"]["access"] == ["range"]
    # The query's σ then scans the temporary, which never carries an index.
    assert evaluate["attrs"] == {
        "rows_scanned": virtual.cardinality(), "rows_out": virtual.cardinality(), "access": ["scan"],
    }
    scanned = construct["attrs"]["rows_scanned"] + evaluate["attrs"]["rows_scanned"]
    assert mediator.store.counters.rows_scanned - before == scanned


def test_cache_verdict_events_present(ex23_trace):
    tracer, _ = ex23_trace
    tree = tracer.span_tree()
    assert events_named(tree, "cache_miss") or events_named(tree, "cache_hit")
    assert events_named(tree, "temp_built")


# ---------------------------------------------------------------------------
# JSONL export + schema validation
# ---------------------------------------------------------------------------
def test_export_validates_against_checked_in_schema(ex23_trace, tmp_path):
    tracer, _ = ex23_trace
    path = tmp_path / "ex23.jsonl"
    written = export_jsonl(tracer, path)
    assert written == tracer.record_count() > 0
    assert validate_jsonl_file(path) == written


@pytest.mark.parametrize("name", sorted(scenario_names()))
def test_every_canned_scenario_validates(name, tmp_path):
    if name == "faults":
        pytest.skip("covered by test_fault_events_trace (slow)")
    tracer = Tracer(enabled=True, provenance=True)
    run_scenario(name, tracer)
    assert validate_records(tracer.records()) > 0


def test_unknown_event_name_fails_validation(ex23_trace):
    tracer, _ = ex23_trace
    records = tracer.records()
    # "exchange" left the taxonomy with the sharded kernel: retired names
    # are as unknown as never-defined ones.
    for name in ("totally_new_event", "exchange"):
        forged = dict(records[-1])
        forged.update(type="event", name=name, span=None, time=0.0)
        forged["id"] = 10**9
        with pytest.raises(TraceValidationError, match="unknown event name"):
            validate_records(records + [forged])


def test_unknown_span_name_and_unfinished_span_fail():
    schema = load_schema()
    good = {
        "type": "span",
        "id": 1,
        "parent": None,
        "name": "query",
        "start": 0.0,
        "end": 1.0,
        "attrs": {},
    }
    for name in ("mystery_span", "shard_worker"):  # the latter is retired
        with pytest.raises(TraceValidationError, match="unknown span name"):
            validate_records([dict(good, name=name)], schema)
    with pytest.raises(TraceValidationError, match="never ended"):
        validate_records([dict(good, end=None)], schema)
    with pytest.raises(TraceValidationError, match="duplicate id"):
        validate_records([good, dict(good)], schema)
    with pytest.raises(TraceValidationError, match="unknown parent"):
        validate_records([dict(good, parent=99)], schema)


def test_fault_events_trace():
    tracer = Tracer(enabled=True, provenance=True)
    run_scenario("faults", tracer)
    records = tracer.records()
    assert validate_records(records) > 0
    names = {r["name"] for r in records}
    # The faulty-channel scenario must surface reliability-layer activity.
    assert "fault_retransmit" in names or "fault_drop" in names
    assert "update_txn" in names


# ---------------------------------------------------------------------------
# Cache-invalidation provenance vs from-scratch recompute
# ---------------------------------------------------------------------------
def test_cache_invalidation_provenance_matches_recompute():
    """Every ``cache_invalidate`` event carries a non-empty origin set, and
    each origin is a source transaction whose exclusion really changes the
    invalidated relation's recomputed value."""
    tracer = Tracer(enabled=True, provenance=True)
    mediator, sources = figure1_mediator("ex23", tracer=tracer)
    mediator.query_relation("T")  # populate the temp cache

    txn_deltas = {}
    d_r = SetDelta()
    d_r.insert("R", row(r1=9001, r2=5, r3=77, r4=100))
    sources["db1"].execute(d_r)
    txn_deltas["db1#1"] = d_r
    d_s = SetDelta()
    d_s.insert("S", row(s1=5, s2=888, s3=10))
    sources["db2"].execute(d_s)
    txn_deltas["db2#1"] = d_s
    mediator.refresh()

    invalidations = [
        r for r in tracer.records() if r["name"] == "cache_invalidate"
    ]
    assert invalidations, "the update transaction invalidated no cache entries"

    vdp = figure1_vdp()
    truth_full = recompute_all(vdp, sources)
    for event in invalidations:
        attrs = event["attrs"]
        origins = attrs["origins"]
        assert origins, f"invalidation of {attrs['relation']} carries no origins"
        assert set(origins) <= set(txn_deltas)
        for label in origins:
            # Rebuild the pristine sources, apply every transaction except
            # this origin, and the invalidated relation must recompute to a
            # different value — the origin really caused the invalidation.
            fresh = figure1_sources()
            for other, delta in txn_deltas.items():
                if other != label:
                    fresh[{"db1#1": "db1", "db2#1": "db2"}[other]].execute(delta)
            truth_without = recompute_all(vdp, fresh)
            assert truth_without[attrs["relation"]] != truth_full[attrs["relation"]], (
                f"origin {label} did not affect {attrs['relation']}"
            )


def test_provenance_of_survives_queries(ex23_trace):
    tracer, mediator = ex23_trace
    origins = tracer.provenance_of("T")
    assert {o.label for o in origins} == {"db1#1", "db2#1"}
    assert not tracer.provenance.is_approx("T")
