"""Tests for the compiled propagation engine (rules compiled at build time).

Three layers of claims:

* **parity** — a rule compiled eagerly (with VDP schemas, as the rulebase
  does) fires identically to one compiled lazily (schemas captured from
  the first catalog), and both match the one-shot ``spj_delta`` wrapper;
* **declarations** — the rulebase collects exactly the join-key indexes
  its compiled plans can probe, excluding synthetic delta aliases;
* **steady state** — a fully materialized mediator propagates updates with
  zero rows hashed and zero index rebuilds, only probes of incrementally
  maintained indexes.
"""

import pytest

from repro.core.rules import CompiledSPJ, build_rule, spj_delta
from repro.deltas import Delta, SetDelta
from repro.errors import VDPError
from repro.relalg import BagRelation, make_schema, parse_expression, row
from repro.correctness import assert_materialized_correct
from repro.workloads import (
    figure1_mediator,
    figure1_sources,
    figure1_vdp,
    figure4_mediator,
    figure4_sources,
)

L = make_schema("L", ["k", "x"])
Rr = make_schema("Rr", ["k2", "y"])


def _catalog():
    return {
        "L": BagRelation.from_values(L, [(1, 10), (2, 20), (3, 10)]),
        "Rr": BagRelation.from_values(Rr, [(10, "a"), (20, "b"), (10, "c")]),
    }


def _delta():
    return Delta.from_counts("L", {row(k=4, x=10): 1, row(k=2, x=20): -1})


JOIN_DEF = parse_expression("project[k, y](L join[x = k2] Rr)")


def test_eager_and_lazy_compilation_fire_identically():
    schemas = {"L": L, "Rr": Rr, "T": make_schema("T", ["k", "y"])}
    eager = build_rule("T", JOIN_DEF, "L", L, schemas)
    lazy = build_rule("T", JOIN_DEF, "L", L)
    catalog = _catalog()
    delta = _delta()
    got_eager = eager.fire(delta, catalog)
    got_lazy = lazy.fire(delta, catalog)
    one_shot = spj_delta(JOIN_DEF, "T", "L", delta, catalog, L)
    assert got_eager == got_lazy == one_shot
    assert not got_eager.is_empty()


def test_compiled_rule_probes_declared_index():
    """With the sibling indexed on the planned key, firing probes it."""
    from repro.relalg import EvalCounters

    rule = build_rule("T", JOIN_DEF, "L", L, {"L": L, "Rr": Rr})
    reqs = rule.index_requirements()
    assert reqs == {"Rr": {("k2",)}}

    catalog = _catalog()
    catalog["Rr"].ensure_index(("k2",))
    counters = EvalCounters()
    with_index = rule.fire(_delta(), catalog, counters)
    assert counters.index_probes > 0
    assert counters.rows_hashed == 0
    assert counters.index_rebuilds == 0

    plain_counters = EvalCounters()
    without_index = rule.fire(_delta(), _catalog(), plain_counters)
    assert plain_counters.index_probes == 0
    assert plain_counters.rows_hashed > 0
    assert with_index == without_index


def test_compiled_spj_rejects_unreferenced_child():
    with pytest.raises(VDPError):
        CompiledSPJ(parse_expression("project[k](L)"), "T", "Rr", Rr)
    with pytest.raises(VDPError):
        spj_delta(parse_expression("project[k](L)"), "T", "Rr", _delta(), _catalog(), Rr)


def test_set_rule_parity_eager_vs_lazy():
    schema = make_schema("W", ["k"])
    definition = parse_expression("project[k](L) minus project[k](rename[k2 = k](Rr))")
    catalog = {
        "L": BagRelation.from_values(L, [(1, 10), (2, 20)]),
        "Rr": BagRelation.from_values(Rr, [(2, "a")]),
    }
    delta = Delta.from_counts("L", {row(k=3, x=5): 1, row(k=1, x=10): -1})
    schemas = {"L": L, "Rr": Rr, "W": schema}
    eager = build_rule("W", definition, "L", L, schemas)
    lazy = build_rule("W", definition, "L", L)
    assert eager.fire(delta, dict(catalog)) == lazy.fire(delta, dict(catalog))


def test_rulebase_collects_index_requirements():
    from repro.core.rulebase import RuleBase

    rulebase = RuleBase(figure1_vdp())
    reqs = rulebase.index_requirements()
    # T = project(R_p join[r2 = s1] S_p): on ΔR_p probe S_p(s1), on ΔS_p
    # probe R_p(r2).  Leaf-parent chains have no joins, so nothing else.
    assert reqs == {"R_p": {("r2",)}, "S_p": {("s1",)}}
    assert not any(base.startswith("__") for base in reqs)


def _one_update(mediator, k):
    delta = SetDelta()
    delta.insert("R", row(r1=900_000 + k, r2=k % 25, r3=k, r4=100))
    mediator.enqueue_update("db1", delta)
    return mediator.run_update_transaction()


def test_steady_state_propagation_is_rebuild_free():
    """After init, N transactions probe maintained indexes and hash nothing."""
    mediator, _ = figure1_mediator("ex21", sources=figure1_sources(seed=3))
    mediator.reset_stats()
    for k in range(5):
        result = _one_update(mediator, k)
        assert result.rules_fired > 0
    stats = mediator.stats()
    assert stats.index_rebuilds == 0
    assert stats.index_probes >= 5
    assert stats.rows_hashed == 0
    assert stats.propagation_passes == 5


def _g_rule_counters_for_c_modification(cd_rows):
    """Fire one 10-row in-place modification of ``C`` through a default
    Figure 4 mediator; return the counters of G's F-edge rule."""
    from repro.relalg import EvalCounters

    sources = figure4_sources(a_rows=30, b_rows=20, cd_rows=cd_rows, seed=11)
    mediator, _ = figure4_mediator("all_m", sources=sources)
    rule = mediator.rulebase.edge_rule("G", "F")
    fired = []
    fire = rule.fire

    def counting_fire(child_delta, catalog, counters=None):
        own = EvalCounters()
        out = fire(child_delta, catalog, own)
        fired.append(own)
        if counters is not None:
            counters.merge(own)
        return out

    rule.fire = counting_fire
    delta = SetDelta()
    for old in sorted(sources["dbC"].relation("C").rows(), key=lambda r: r["c1"])[:10]:
        delta.delete("C", old)
        # c1 = d1 pairs one-to-one, so F changes by exactly ten rows each way.
        delta.insert("C", row(c1=old["c1"], c2=1_000 + old["c1"]))
    sources["dbC"].execute(delta)
    mediator.refresh()
    assert_materialized_correct(mediator)
    (counters,) = fired
    return counters


def test_difference_rule_work_is_flat_in_database_size():
    """The O(delta) claim as an exact count: G's rule scans the same rows
    for the same 10-row C modification at |C|=|D|=400 and at 6 400."""
    small = _g_rule_counters_for_c_modification(400)
    large = _g_rule_counters_for_c_modification(6_400)
    assert small.rows_scanned == large.rows_scanned == 20
    assert small.index_probes > 0 and large.index_probes > 0
    assert small.rows_hashed == large.rows_hashed == 0


def test_repository_indexes_survive_apply_delta():
    """The repos' declared indexes are maintained by delta application —
    still present and fresh after transactions, never re-ensured."""
    mediator, _ = figure1_mediator("ex21", sources=figure1_sources(seed=3))
    repo = mediator.store.repo("S_p")
    assert repo.has_index(("s1",))
    before = dict(repo.index_lookup(("s1",), (1,)))
    delta = SetDelta()
    delta.insert("S", row(s1=1, s2=999, s3=5))
    mediator.enqueue_update("db2", delta)
    mediator.run_update_transaction()
    after = dict(repo.index_lookup(("s1",), (1,)))
    assert after.get(row(s1=1, s2=999)) == 1
    for r, n in before.items():
        assert after.get(r) == n


def _e_rule_counters(a_rows, b_rows):
    """Fire one transaction of A and B changes through a default Figure 4
    mediator; return the counters of E's two edge rules and the stats."""
    from repro.relalg import EvalCounters

    sources = figure4_sources(a_rows=a_rows, b_rows=b_rows, cd_rows=40, seed=11)
    mediator, _ = figure4_mediator("all_m", sources=sources)
    fired = {}
    for child in ("A_p", "B_p"):
        rule = mediator.rulebase.edge_rule("E", child)

        def counting_fire(child_delta, catalog, counters=None, _fire=rule.fire, _child=child):
            own = EvalCounters()
            out = _fire(child_delta, catalog, own)
            fired[_child] = own
            if counters is not None:
                counters.merge(own)
            return out

        rule.fire = counting_fire
    mediator.reset_stats()
    for k in range(4):
        # Small a1 / b2 values, so the theta join matches on both sides.
        sources["dbA"].insert("A", a1=10_000 + k, a2=k - 2)
        sources["dbB"].insert("B", b1=10_000 + k, b2=200 + k)
    sources["dbA"].delete("A", **dict(min(sources["dbA"].relation("A").rows(), key=lambda r: r["a1"])))
    mediator.refresh()
    assert_materialized_correct(mediator)
    return fired, mediator.stats()


def test_theta_rules_bisect_an_ordered_index_flat_in_database_size():
    """E = π(A_p ⋈[a1^2 + a2 < b2^2] B_p): each edge rule drives from its
    delta and bisects the sibling's ordered index — it scans neither
    repository, its work is the same at |A|, |B| = 30, 20 and 600, 400, and
    the maintained indexes are never rebuilt."""
    small, small_stats = _e_rule_counters(30, 20)
    large, large_stats = _e_rule_counters(600, 400)
    for child, delta_rows in (("A_p", 5), ("B_p", 4)):
        assert small[child].rows_scanned == large[child].rows_scanned == delta_rows
        assert small[child].index_probes == large[child].index_probes == delta_rows
        assert small[child].rows_hashed == large[child].rows_hashed == 0
    for stats in (small_stats, large_stats):
        assert stats.index_rebuilds == 0
        assert stats.rows_hashed == 0


def test_theta_join_declares_ordered_indexes_on_both_operands():
    from repro.core.rulebase import RuleBase
    from repro.workloads import figure4_vdp

    reqs = RuleBase(figure4_vdp()).index_requirements()
    assert {key.text for key in reqs["A_p"]} == {"((a1 ^ 2) + a2)"}
    assert {key.text for key in reqs["B_p"]} == {"(b2 ^ 2)"}
    mediator, _ = figure4_mediator("all_m")
    for name, (key,) in (("A_p", reqs["A_p"]), ("B_p", reqs["B_p"])):
        assert mediator.store.repo(name).has_index(key)
