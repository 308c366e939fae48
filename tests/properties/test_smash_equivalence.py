"""End-to-end parity: net-effect compaction and the probe rules are invisible.

Over the Figure-4 mediator under randomized churn:

* ``smash_enabled=False`` (one propagation pass per queued source message,
  in arrival order, instead of one pass over the smashed net delta) must
  reach exactly the same exports — the Heraclitus smash theorem, checked
  through the whole kernel rather than on delta values alone;
* the support-probe difference rules must agree with the from-scratch
  recomputation after every random delta stream.

Churn deliberately includes insert-then-delete of the *same* rows within
one flush window so the smashed run actually cancels work (visible in
``deltas_smashed``) while the unsmashed run replays it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.correctness import assert_materialized_correct, assert_view_correct
from repro.workloads.scenarios import figure4_mediator, figure4_sources

SOURCE_OF = {"a": ("dbA", "A"), "b": ("dbB", "B"), "c": ("dbC", "C"), "d": ("dbD", "D")}

churn_ops = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", "d"]),
        st.sampled_from(["insert", "delete", "bounce"]),
        st.integers(min_value=0, max_value=10_000),
    ),
    max_size=16,
)


def _drive(mediators, sources_list, ops):
    """Apply the same op script to every (mediator, sources) pair."""
    for counter, (which, op, arg) in enumerate(ops):
        for mediator, sources in zip(mediators, sources_list):
            source_name, relation = SOURCE_OF[which]
            source = sources[source_name]
            cols = source.schema(relation).attribute_names
            # Join-relevant second column: keeps deltas flowing through
            # F = C ⋈ D and the E-join rather than dying at the leaves.
            fresh = {cols[0]: 50_000 + counter, cols[1]: arg % 25}
            if op == "insert":
                source.insert(relation, **fresh)
            elif op == "bounce":
                # Insert + delete of the same row inside one flush window:
                # the net announcement cancels, the unsmashed run replays.
                source.insert(relation, **fresh)
                source.delete(relation, **fresh)
            else:
                rows = sorted(
                    source.relation(relation).rows(), key=lambda r: sorted(r.items())
                )
                if rows:
                    source.delete(relation, **dict(rows[arg % len(rows)]))
        if counter % 3 == 0:
            for mediator, _ in zip(mediators, sources_list):
                mediator.refresh()
    for mediator in mediators:
        mediator.refresh()


def _exports(mediator):
    return {name: mediator.query(name).to_sorted_list() for name in ("E", "G")}


@given(st.sampled_from(["paper", "all_m"]), churn_ops)
@settings(max_examples=10, deadline=None)
def test_probe_rules_match_recompute(annotation, ops):
    """The support-probe difference rules — the store with the probe
    indexes declared — must agree with the from-scratch recomputation
    after a random delta stream."""
    mediator, sources = figure4_mediator(annotation, sources=figure4_sources(seed=5))
    if annotation == "all_m":
        # G = π_{a1,b1} E − F: both operands are probed on (a1, b1).
        for node in ("E", "F"):
            assert mediator.store.repo(node).has_index(("a1", "b1"))
    _drive([mediator], [sources], ops)
    assert_materialized_correct(mediator)
    assert_view_correct(mediator)


@given(st.sampled_from(["paper", "all_m"]), churn_ops)
@settings(max_examples=15, deadline=None)
def test_unsmashed_propagation_exports_match_smashed(annotation, ops):
    smashed_m, smashed_s = figure4_mediator(
        annotation, sources=figure4_sources(seed=5), smash_enabled=True
    )
    plain_m, plain_s = figure4_mediator(
        annotation, sources=figure4_sources(seed=5), smash_enabled=False
    )
    _drive([smashed_m, plain_m], [smashed_s, plain_s], ops)
    assert _exports(plain_m) == _exports(smashed_m)
    assert_view_correct(plain_m)


def test_bounce_churn_is_cancelled_by_smash_and_counted():
    """Deterministic spotlight on the ablation: rows bounced across
    *separate announcements* cost the unsmashed kernel one propagation pass
    per message, while the smashed kernel's queue fold cancels them into a
    single net pass (counted in ``deltas_compacted``)."""
    smashed_m, smashed_s = figure4_mediator(
        "paper", sources=figure4_sources(seed=5), smash_enabled=True
    )
    plain_m, plain_s = figure4_mediator(
        "paper", sources=figure4_sources(seed=5), smash_enabled=False
    )
    for mediator, sources in ((smashed_m, smashed_s), (plain_m, plain_s)):
        # collect between the insert and the delete so each half lands in
        # its own queue entry — bounces inside one source transaction
        # window already cancel at the source's announcement accumulator.
        for i in range(6):
            sources["dbC"].insert("C", c1=9_000 + i, c2=i % 25)
            mediator.collect_announcements()
            sources["dbC"].delete("C", c1=9_000 + i, c2=i % 25)
            mediator.collect_announcements()
        sources["dbA"].insert("A", a1=9_100, a2=3)
        mediator.collect_announcements()
        mediator.run_update_transaction()
    assert _exports(plain_m) == _exports(smashed_m)
    # 13 queued messages replay as 13 passes unsmashed, 1 pass smashed;
    # the 6 bounced inserts+deletes (12 atoms) vanish in the queue fold.
    assert smashed_m.stats().propagation_passes == 1
    assert plain_m.stats().propagation_passes == 13
    assert smashed_m.stats().deltas_compacted >= 12
