"""Unit tests for the Virtual Attribute Processor's two phases."""

import pytest

from repro.core import TempRequest
from repro.correctness import recompute_all
from repro.errors import MediatorError
from repro.relalg import TRUE, Evaluator, conjuncts, parse_expression, parse_predicate, row
from repro.workloads import figure1_mediator, figure4_mediator


def request(relation, attrs, pred=TRUE):
    return TempRequest(relation, frozenset(attrs), pred)


def test_plan_empty_when_storage_covers():
    mediator, _ = figure1_mediator("ex21")
    planned = mediator.vap.plan([request("T", ["r1", "s1"])])
    assert planned == []


def test_plan_poll_for_leaf_parent():
    mediator, _ = figure1_mediator("ex23")
    planned = mediator.vap.plan([request("R_p", ["r1", "r3"])])
    assert len(planned) == 1
    assert planned[0].strategy == "poll"
    assert planned[0].relation == "R_p"


def test_plan_key_based_for_example_23_query():
    mediator, _ = figure1_mediator("ex23")
    planned = mediator.vap.plan(
        [request("T", ["r3", "s1"], parse_predicate("r3 < 100"))]
    )
    strategies = {p.relation: p.strategy for p in planned}
    assert strategies["T"] == "key-based"
    # Only the R' fetch is planned; S' is never touched.
    assert "S_p" not in strategies
    assert strategies["R_p"] == "poll"
    t_plan = next(p for p in planned if p.relation == "T")
    assert t_plan.key_attrs == ("r1",)
    assert t_plan.virtual_children == ("R_p",)


def test_plan_children_based_when_key_based_disabled():
    mediator, _ = figure1_mediator("ex23", key_based_enabled=False)
    planned = mediator.vap.plan(
        [request("T", ["r3", "s1"], parse_predicate("r3 < 100"))]
    )
    strategies = {p.relation: p.strategy for p in planned}
    assert strategies["T"] == "children"
    assert strategies["R_p"] == "poll"
    assert strategies["S_p"] == "poll"


def test_plan_merges_requests_for_same_relation():
    mediator, _ = figure1_mediator("ex23", key_based_enabled=False)
    planned = mediator.vap.plan(
        [
            request("T", ["r3"], parse_predicate("r3 < 10")),
            request("T", ["s2"], parse_predicate("s2 > 5")),
        ]
    )
    t_plan = next(p for p in planned if p.relation == "T")
    assert {"r3", "s2"} <= set(t_plan.request.attrs)
    assert "or" in str(t_plan.request.predicate)  # f ∨ g merge (step 2b)


def test_plan_orders_parents_first():
    mediator, _ = figure4_mediator("all_v")
    planned = mediator.vap.plan([request("G", ["a1", "b1"])])
    order = [p.relation for p in planned]
    assert order.index("G") < order.index("E")
    assert order.index("E") < order.index("A_p")


def test_construct_polls_once_per_source():
    mediator, _ = figure1_mediator("ex23", key_based_enabled=False)
    mediator.reset_stats()
    temps = mediator.vap.materialize(
        [request("T", ["r3", "s2", "s1", "r1"])]
    )
    assert set(temps) == {"T", "R_p", "S_p"}
    assert mediator.vap.stats.polled_sources == 2
    assert mediator.links["db1"].poll_count == 1
    assert mediator.links["db2"].poll_count == 1


def test_constructed_temp_matches_direct_evaluation():
    mediator, sources = figure1_mediator("ex23")
    temps = mediator.vap.materialize([request("T", ["r1", "r3", "s1", "s2"])])
    from repro.correctness import recompute

    truth = recompute(mediator.vdp, sources, "T")
    got = {tuple(sorted(r.items())): n for r, n in temps["T"].items()}
    want = {tuple(sorted(r.items())): n for r, n in truth.items()}
    assert got == want


def test_missing_link_raises():
    mediator, _ = figure1_mediator("ex23")
    del mediator.vap.links["db1"]
    with pytest.raises(MediatorError):
        mediator.vap.materialize([request("R_p", ["r1", "r3"])])


def test_resolve_failure_without_repo_or_temp():
    mediator, _ = figure1_mediator("ex23")
    with pytest.raises(MediatorError):
        mediator.vap._resolve("R_p", {})


def test_stats_reset():
    mediator, _ = figure1_mediator("ex23")
    mediator.query("project[r3](T)")
    assert mediator.vap.stats.temps_built > 0
    mediator.vap.stats.reset()
    assert mediator.vap.stats.temps_built == 0
    assert mediator.vap.stats.polls == 0


def test_plan_refuses_key_based_for_union_nodes():
    """Key-based construction assumes every output row embeds a row of each
    virtual child (true for SPJ).  A union row may come wholly from the
    other branch, so the planner must pick children-based reconstruction
    even when the hybrid node stores a key of both children."""
    from repro.workloads import union_mediator

    mediator, _ = union_mediator({"all_orders": "[o^m, c^m, a^v]"})
    planned = mediator.vap.plan([request("all_orders", ["o", "a"])])
    strategies = {p.relation: p.strategy for p in planned}
    assert strategies["all_orders"] == "children"
    assert "key-based" not in strategies.values()
    assert mediator.vap.stats.key_based_used == 0


# Key-based construction selects before it joins: conjuncts of the request
# predicate over stored attributes (T stores r1, s1 under ex23) filter the
# repository below the join with the polled R', the rest filter above it.
KEY_BASED_PREDICATES = {
    "stored-only": "r1 >= 2 and r1 < 5",
    "mixed": "r1 >= 2 and r3 < 50",
    "virtual-only": "r3 < 50",
}


@pytest.mark.parametrize("case", sorted(KEY_BASED_PREDICATES))
def test_key_based_selects_stored_conjuncts_below_the_join(case):
    mediator, sources = figure1_mediator("ex23")
    predicate = parse_predicate(KEY_BASED_PREDICATES[case])
    repo = mediator.store.repo("T")
    stored = [
        c for c in conjuncts(predicate) if c.attributes() <= set(repo.schema.attribute_names)
    ]
    selected = sum(1 for r, _ in repo.items() if all(c.evaluate(r) for c in stored))

    counters = mediator.store.counters
    counters.reset()
    with mediator.vap.cache_bypassed():
        temps = mediator.vap.materialize([request("T", ["r1", "r3", "s1"], predicate)])
    assert mediator.vap.stats.key_based_used == 1
    polled = temps["R_p"].cardinality()
    # One pass over the repository and one over the poll answer; the hash
    # table holds the poll answer; only the selected repository rows probe it.
    assert counters.rows_scanned == repo.cardinality() + polled
    assert counters.rows_hashed == polled
    assert counters.hash_probes == selected
    assert (selected < repo.cardinality()) == bool(stored)

    text = f"project[r1, r3, s1](select[{KEY_BASED_PREDICATES[case]}](T))"
    truth = Evaluator({"T": recompute_all(mediator.vdp, sources)["T"]}).evaluate(
        parse_expression(text), "answer"
    )
    assert truth.cardinality() > 0
    assert mediator.query(text) == truth
    with mediator.vap.cache_bypassed():
        assert mediator.query(text) == truth
