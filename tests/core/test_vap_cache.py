"""The delta-aware VAP temp cache: subsumption, invalidation, ablations.

Unit tests drive :class:`VAPTempCache` directly; integration tests pin the
mediator-level contract (repeated queries poll nothing, updates invalidate
precisely, ablations re-poll); the Hypothesis property interleaves random
updates and queries over random VDPs and demands every cache-served answer
be bit-identical to a cold-cache recompute of the same query.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Annotation,
    AnnotatedVDP,
    SquirrelMediator,
    TempRequest,
    VAPTempCache,
    build_vdp,
)
from repro.core.vap_cache import _narrow_safe
from repro.correctness import assert_view_correct
from repro.deltas import BagDelta
from repro.errors import AnnotationError
from repro.relalg import (
    TRUE,
    lt,
    make_schema,
    parse_expression,
    parse_predicate,
    row,
)
from repro.sources import MemorySource
from repro.workloads import figure1_mediator, figure4_mediator


def request(relation, attrs, pred=TRUE):
    return TempRequest(relation, frozenset(attrs), pred)


def full_t(mediator):
    """A full-width temp for T, built cold (bypassing the cache)."""
    with mediator.vap.cache_bypassed():
        temps = mediator.vap.materialize([request("T", ["r1", "r3", "s1", "s2"])])
    return temps["T"]


# ---------------------------------------------------------------------------
# VAPTempCache unit tests
# ---------------------------------------------------------------------------
def test_exact_hit_returns_private_copy():
    mediator, _ = figure1_mediator("ex23")
    cache = VAPTempCache(mediator.vdp)
    req = request("T", ["r1", "r3", "s1", "s2"])
    value = full_t(mediator)
    cache.store(req, value)

    served, subsumed = cache.lookup(req)
    assert not subsumed
    assert served == value
    # Mutating a served value must not corrupt the retained entry.
    served.insert(row(r1=-1, r3=-1, s1=-1, s2=-1))
    again, _ = cache.lookup(req)
    assert again == value


def test_weaker_predicate_subsumes_narrower_request():
    mediator, _ = figure1_mediator("ex23")
    cache = VAPTempCache(mediator.vdp)
    wide = request("T", ["r1", "r3", "s1", "s2"], parse_predicate("r3 < 100"))
    cache.store(wide, full_t(mediator))

    narrow = request("T", ["r1", "r3", "s1", "s2"], parse_predicate("r3 < 40"))
    hit = cache.lookup(narrow)
    assert hit is not None
    served, subsumed = hit
    assert subsumed
    with mediator.vap.cache_bypassed():
        expected = mediator.vap.materialize([narrow])["T"]
    assert served == expected
    # The reverse direction must miss: a narrow entry cannot answer wide.
    cache.clear()
    cache.store(narrow, mediator.vap.materialize([narrow])["T"])
    assert cache.lookup(wide) is None


def test_attr_narrowing_served_for_bag_definitions():
    # T's definition is a non-dedup π over a join — multiplicities survive
    # attribute narrowing, so a full-width entry answers a narrower request.
    mediator, _ = figure1_mediator("ex23")
    cache = VAPTempCache(mediator.vdp)
    cache.store(request("T", ["r1", "r3", "s1", "s2"]), full_t(mediator))

    narrow = request("T", ["r1", "r3", "s1"], parse_predicate("r3 < 100"))
    hit = cache.lookup(narrow)
    assert hit is not None
    served, subsumed = hit
    assert subsumed
    with mediator.vap.cache_bypassed():
        expected = mediator.vap.materialize([narrow])["T"]
    assert served == expected


def test_narrow_safe_walker_rejects_dedup_projections():
    # The VDP grammar currently forbids dproject in node definitions, so the
    # walker is exercised directly: if the grammar ever admits dedup, the
    # cache must refuse attribute narrowing over those nodes.
    safe = parse_expression("project[x1, x2](select[x3 < 5](X))")
    assert _narrow_safe(safe)
    assert _narrow_safe(parse_expression("X join[x2 = y1] Y"))
    assert not _narrow_safe(parse_expression("dproject[x1, x2](X)"))
    assert not _narrow_safe(
        parse_expression("select[x1 < 3](dproject[x1, x2](X))")
    )


def test_attr_narrowing_refused_for_non_narrow_safe_nodes():
    mediator, _ = figure1_mediator("ex23")
    cache = VAPTempCache(mediator.vdp)
    cache.store(request("T", ["r1", "r3", "s1", "s2"]), full_t(mediator))
    # Force the memoized verdict a dedup-bearing definition would produce.
    cache._narrow_safe_memo["T"] = False

    # Attribute narrowing is refused...
    assert cache.lookup(request("T", ["r1", "s1"])) is None
    # ...but exact-width hits and predicate-only narrowing still serve.
    assert cache.lookup(request("T", ["r1", "r3", "s1", "s2"])) is not None
    hit = cache.lookup(
        request("T", ["r1", "r3", "s1", "s2"], parse_predicate("r3 < 40"))
    )
    assert hit is not None and hit[1]


def test_store_drops_entries_the_new_one_subsumes():
    mediator, _ = figure1_mediator("ex23")
    cache = VAPTempCache(mediator.vdp)
    value = full_t(mediator)
    cache.store(request("T", ["r1", "s1"], parse_predicate("r3 < 10")), value)
    cache.store(request("T", ["r3", "s2"], parse_predicate("r3 < 50")), value)
    assert cache.entry_count() == 2  # incomparable attr sets: both kept
    # Wider and weaker than both: they are now redundant.
    cache.store(request("T", ["r1", "r3", "s1", "s2"]), value)
    assert cache.entry_count() == 1


def test_store_caps_entries_per_relation():
    mediator, _ = figure1_mediator("ex23")
    cache = VAPTempCache(mediator.vdp, max_entries_per_relation=3)
    value = full_t(mediator)
    for bound in range(10, 100, 10):  # all incomparable-ish, none subsumed
        cache.store(
            request("T", ["r1", "s1"], parse_predicate(f"r3 = {bound}")), value
        )
    assert cache.entry_count() == 3


def test_invalidate_kills_touched_lineage_only():
    mediator, _ = figure1_mediator("ex23")
    cache = VAPTempCache(mediator.vdp)
    value = full_t(mediator)
    cache.store(request("T", ["r1", "r3", "s1", "s2"]), value)
    with mediator.vap.cache_bypassed():
        rp = mediator.vap.materialize([request("R_p", ["r1", "r2", "r3"])])["R_p"]
    cache.store(request("R_p", ["r1", "r2", "r3"]), rp)

    delta = BagDelta()
    delta.insert("S", row(s1=1, s2=2, s3=3))  # passes S_p's s3 < 50 filter
    dropped = cache.invalidate({"S": delta})
    assert dropped == 1
    assert cache.entries_for("T") == ()
    assert len(cache.entries_for("R_p")) == 1  # untouched subtree survives


def test_invalidate_ignores_deltas_outside_leaf_parent_selection():
    mediator, _ = figure1_mediator("ex23")
    cache = VAPTempCache(mediator.vdp)
    cache.store(request("T", ["r1", "r3", "s1", "s2"]), full_t(mediator))

    delta = BagDelta()
    delta.insert("S", row(s1=900, s2=2, s3=90))  # fails S_p's s3 < 50 filter
    assert cache.invalidate({"S": delta}) == 0
    assert len(cache.entries_for("T")) == 1


# ---------------------------------------------------------------------------
# Mediator integration
# ---------------------------------------------------------------------------
def test_repeated_queries_poll_nothing_when_quiescent():
    mediator, _ = figure1_mediator("ex23")
    mediator.reset_stats()
    q = "project[r1, s1](select[r3 < 100](T))"
    first = mediator.query(q)
    polls_after_first = mediator.vap.stats.polls
    assert polls_after_first > 0
    for _ in range(5):
        assert mediator.query(q) == first
    assert mediator.vap.stats.polls == polls_after_first  # flat, not linear
    assert mediator.vap.stats.cache_hits >= 5


def test_narrower_query_served_by_subsumption():
    mediator, _ = figure1_mediator("ex23")
    mediator.query("project[r1, s1](select[r3 < 100](T))")
    polls = mediator.vap.stats.polls
    narrower = mediator.query("project[r1, s1](select[r3 < 40](T))")
    assert mediator.vap.stats.polls == polls  # no new poll
    assert mediator.vap.stats.subsumption_hits >= 1
    with mediator.vap.cache_bypassed():
        assert narrower == mediator.query("project[r1, s1](select[r3 < 40](T))")


def test_update_transaction_invalidates_and_repolls_affected_subtree_only():
    mediator, sources = figure1_mediator("ex23")
    # Warm a T entry and a full-width R_p entry.
    mediator.query("project[r1, s1](select[r3 < 100](T))")
    mediator.query_relation("R_p", ["r1", "r2", "r3"])
    assert len(mediator.vap.cache.entries_for("T")) == 1
    assert len(mediator.vap.cache.entries_for("R_p")) == 1

    sources["db2"].insert("S", s1=999, s2=1, s3=10)  # relevant: s3 < 50
    mediator.refresh()
    # T's lineage includes S: its entry died.  R_p's (R only) survived.
    assert mediator.vap.stats.cache_invalidations >= 1
    assert mediator.vap.cache.entries_for("T") == ()
    assert len(mediator.vap.cache.entries_for("R_p")) == 1
    # An R_p query is still served without a poll...
    polls = mediator.vap.stats.polls
    sources_polled = mediator.vap.stats.polled_sources
    mediator.query_relation("R_p", ["r1", "r2", "r3"])
    assert mediator.vap.stats.polls == polls
    # ...and a query needing S-side virtual attrs re-polls db2 ONLY: the
    # R-side of the reconstruction rides the surviving R_p entry.
    mediator.query("project[r1, s2](select[r3 < 100](T))")
    assert mediator.vap.stats.polls == polls + 1
    assert mediator.vap.stats.polled_sources == sources_polled + 1
    assert_view_correct(mediator)


def test_update_outside_leaf_parent_filter_invalidates_nothing():
    mediator, sources = figure1_mediator("ex23")
    q = "project[r1, s1](select[r3 < 100](T))"
    mediator.query(q)
    assert len(mediator.vap.cache.entries_for("T")) == 1
    sources["db2"].insert("S", s1=998, s2=1, s3=90)  # fails s3 < 50
    mediator.refresh()  # the IUP transaction itself may poll; that's fine
    assert mediator.vap.stats.cache_invalidations == 0
    assert len(mediator.vap.cache.entries_for("T")) == 1  # entry survived
    polls = mediator.vap.stats.polls
    mediator.query(q)
    assert mediator.vap.stats.polls == polls  # still served from cache
    assert_view_correct(mediator)


def test_cache_ablation_polls_linearly():
    mediator, _ = figure1_mediator("ex23")
    mediator.reset_stats()
    q = "project[r1, s1](select[r3 < 100](T))"
    with mediator.vap.cache_bypassed():
        mediator.query(q)
        per_query = mediator.vap.stats.polls
        assert per_query > 0
        for _ in range(4):
            mediator.query(q)
    assert mediator.vap.stats.polls == 5 * per_query
    assert mediator.vap.stats.cache_hits == 0
    assert mediator.vap.cache.entry_count() == 0


def test_no_caching_without_eager_compensation():
    # Without ECA a constructed temp tracks the *source* state, which can
    # run ahead of the materialized state — unsound to retain.
    mediator, _ = figure1_mediator("ex23", eca_enabled=False)
    mediator.query("project[r1, s1](select[r3 < 100](T))")
    assert mediator.vap.cache.entry_count() == 0
    assert mediator.vap.stats.cache_hits == 0


def test_no_caching_over_non_announcing_sources():
    # all_v Figure 4: every source is a pure virtual-contributor — their
    # commits are never announced, so cached temps could go silently stale.
    mediator, sources = figure4_mediator("all_v")
    mediator.query_relation("E")
    assert mediator.vap.cache.entry_count() == 0
    polls = mediator.vap.stats.polls
    sources["dbB"].insert("B", b1=999, b2=11)  # changes E, no announcement
    answer = mediator.query_relation("E")
    assert mediator.vap.stats.polls > polls  # re-polled, saw the new row
    assert any(r["b1"] == 999 for r in answer.rows())


def test_cache_bypassed_context_neither_serves_nor_fills():
    mediator, _ = figure1_mediator("ex23")
    q = "project[r1, s1](select[r3 < 100](T))"
    mediator.query(q)
    entries = mediator.vap.cache.entry_count()
    hits = mediator.vap.stats.cache_hits
    polls = mediator.vap.stats.polls
    with mediator.vap.cache_bypassed():
        mediator.query(q)
    assert mediator.vap.stats.polls > polls  # polled despite warm cache
    assert mediator.vap.stats.cache_hits == hits
    assert mediator.vap.cache.entry_count() == entries


def test_initialize_clears_cache():
    mediator, _ = figure1_mediator("ex23")
    mediator.query("project[r1, s1](select[r3 < 100](T))")
    assert mediator.vap.cache.entry_count() > 0
    mediator.initialize()
    assert mediator.vap.cache.entry_count() == 0


def test_iup_temps_flow_through_cache_and_stay_correct():
    # ex22 keeps R_p virtual while T is materialized: every update
    # transaction requests an R_p temp.  Those fills/hits must never change
    # what the kernel computes.
    mediator, sources = figure1_mediator("ex22")
    for k in range(4):
        sources["db2"].insert("S", s1=900 + k, s2=k, s3=5)
        mediator.refresh()
    assert mediator.vap.stats.cache_hits >= 1  # later transactions reuse R_p
    assert_view_correct(mediator)


# ---------------------------------------------------------------------------
# Hypothesis: cached answers == cold-cache recompute under interleavings
# ---------------------------------------------------------------------------
X = make_schema("X", ["x1", "x2", "x3"], key=["x1"])
Y = make_schema("Y", ["y1", "y2"], key=["y1"])


@st.composite
def vdp_specs(draw):
    shape = draw(st.sampled_from(["join", "union", "difference"]))
    threshold = draw(st.integers(min_value=1, max_value=9))
    views = {"Xp": f"select[x3 < {threshold}](X)", "Yp": "Y"}
    if shape == "join":
        attrs = sorted(
            draw(
                st.sets(
                    st.sampled_from(["x1", "x2", "x3", "y1", "y2"]),
                    min_size=1,
                    max_size=5,
                )
            )
        )
        views["V"] = f"project[{', '.join(attrs)}](Xp join[x2 = y1] Yp)"
    elif shape == "union":
        views["V"] = (
            "project[x1, x2](Xp) union project[x1, x2](rename[y1 = x1, y2 = x2](Yp))"
        )
    else:
        views["V"] = (
            "project[x2](Xp) minus project[x2](rename[y1 = x2](project[y1](Yp)))"
        )
    return shape, views


@st.composite
def annotations_for(draw, annotated_nodes, vdp):
    marks = {}
    for name in annotated_nodes:
        node = vdp.node(name)
        attrs = node.schema.attribute_names
        choice = draw(st.sampled_from(["m", "v", "hybrid"]))
        if choice == "m" or (choice == "hybrid" and len(attrs) < 2):
            marks[name] = Annotation.all_materialized(attrs)
        elif choice == "v":
            marks[name] = Annotation.all_virtual(attrs)
        else:
            split = draw(st.integers(min_value=1, max_value=len(attrs) - 1))
            marks[name] = Annotation.of(
                {a: ("m" if i < split else "v") for i, a in enumerate(attrs)}
            )
    return marks


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["ix", "dx", "iy", "dy", "refresh", "query", "query"]),
        st.integers(min_value=0, max_value=9_999),
    ),
    max_size=18,
)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_cached_answers_match_cold_recompute_under_interleavings(data):
    shape, views = data.draw(vdp_specs())
    vdp = build_vdp(
        source_schemas={"X": X, "Y": Y},
        source_of={"X": "sx", "Y": "sy"},
        views=views,
        exports=["V"],
    )
    marks = data.draw(annotations_for(vdp.non_leaves(), vdp))
    try:
        annotated = AnnotatedVDP(vdp, marks)
    except AnnotationError:
        return

    rng = random.Random(7)
    sx = MemorySource(
        "sx",
        [X],
        initial={"X": [(i, rng.randrange(10), rng.randrange(10)) for i in range(12)]},
    )
    sy = MemorySource("sy", [Y], initial={"Y": [(i, rng.randrange(10)) for i in range(8)]})
    mediator = SquirrelMediator(annotated, {"sx": sx, "sy": sy})
    mediator.initialize()

    v_attrs = mediator.vdp.node("V").schema.attribute_names
    ops = data.draw(ops_strategy)
    counter = 1000
    for op, arg in ops:
        counter += 1
        if op == "refresh":
            mediator.refresh()
        elif op == "query":
            attrs = v_attrs[: 1 + arg % len(v_attrs)]
            pred = lt(v_attrs[arg % len(v_attrs)], arg) if arg % 3 else TRUE
            cached = mediator.query_relation("V", attrs, pred)
            with mediator.vap.cache_bypassed():
                cold = mediator.query_relation("V", attrs, pred)
            assert cached == cold  # bit-identical: no stale reads, ever
        elif op == "ix":
            sx.insert("X", x1=counter, x2=arg % 10, x3=arg % 13)
        elif op == "iy":
            sy.insert("Y", y1=counter, y2=arg % 10)
        else:
            source, relation = (sx, "X") if op == "dx" else (sy, "Y")
            rows = sorted(
                source.relation(relation).rows(), key=lambda r: sorted(r.items())
            )
            if rows:
                source.delete(relation, **dict(rows[arg % len(rows)]))
    mediator.refresh()
    assert_view_correct(mediator)  # includes its own cached-vs-cold check
