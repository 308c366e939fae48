"""End-to-end parity: net-effect compaction and the probe rules are invisible.

Over the Figure-4 mediator under randomized churn:

* per-message replay (one ``refresh()`` per source announcement, in commit
  order, instead of one pass over the smashed net delta of a batch) must
  reach exactly the same exports — the Heraclitus smash theorem, checked
  through the whole kernel rather than on delta values alone;
* the support-probe difference rules must agree with the from-scratch
  recomputation after every random delta stream.

Churn deliberately includes insert-then-delete of the *same* rows within
one flush window so the batched run actually cancels work (visible in
``deltas_compacted``) while the per-message run replays it.
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


def _drive(mediator, sources, ops, per_message=False):
    """Apply the op script; refresh every third op, or — ``per_message`` —
    after every single source commit."""

    def committed():
        if per_message:
            mediator.refresh()

    for counter, (which, op, arg) in enumerate(ops):
        source_name, relation = SOURCE_OF[which]
        source = sources[source_name]
        cols = source.schema(relation).attribute_names
        # Join-relevant second column: keeps deltas flowing through
        # F = C ⋈ D and the E-join rather than dying at the leaves.
        fresh = {cols[0]: 50_000 + counter, cols[1]: arg % 25}
        if op == "insert":
            source.insert(relation, **fresh)
            committed()
        elif op == "bounce":
            # Insert + delete of the same row inside one flush window:
            # the net announcement cancels, the per-message run replays.
            source.insert(relation, **fresh)
            committed()
            source.delete(relation, **fresh)
            committed()
        else:
            rows = sorted(
                source.relation(relation).rows(), key=lambda r: sorted(r.items())
            )
            if rows:
                source.delete(relation, **dict(rows[arg % len(rows)]))
                committed()
        if counter % 3 == 0:
            mediator.refresh()
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
    _drive(mediator, sources, ops)
    assert_materialized_correct(mediator)
    assert_view_correct(mediator)


@given(st.sampled_from(["paper", "all_m"]), churn_ops)
@settings(max_examples=15, deadline=None)
def test_unsmashed_propagation_exports_match_smashed(annotation, ops):
    smashed_m, smashed_s = figure4_mediator(annotation, sources=figure4_sources(seed=5))
    plain_m, plain_s = figure4_mediator(annotation, sources=figure4_sources(seed=5))
    _drive(smashed_m, smashed_s, ops)
    _drive(plain_m, plain_s, ops, per_message=True)
    assert _exports(plain_m) == _exports(smashed_m)
    assert_view_correct(plain_m)


def test_bounce_churn_is_cancelled_by_smash_and_counted():
    """Deterministic spotlight: rows bounced across *separate
    announcements* cost per-message replay one propagation pass per
    message, while one transaction over the queued batch cancels them in
    the queue fold into a single net pass (counted in
    ``deltas_compacted``)."""
    smashed_m, smashed_s = figure4_mediator("paper", sources=figure4_sources(seed=5))
    plain_m, plain_s = figure4_mediator("paper", sources=figure4_sources(seed=5))
    # collect between the insert and the delete so each half lands in its
    # own queue entry — bounces inside one source transaction window
    # already cancel at the source's announcement accumulator.
    for mediator, sources, announced in (
        (smashed_m, smashed_s, smashed_m.collect_announcements),
        (plain_m, plain_s, plain_m.refresh),
    ):
        for i in range(6):
            sources["dbC"].insert("C", c1=9_000 + i, c2=i % 25)
            announced()
            sources["dbC"].delete("C", c1=9_000 + i, c2=i % 25)
            announced()
        sources["dbA"].insert("A", a1=9_100, a2=3)
        announced()
    smashed_m.run_update_transaction()
    assert _exports(plain_m) == _exports(smashed_m)
    # 13 messages replay as 13 passes one at a time, 1 pass batched;
    # the 6 bounced inserts+deletes (12 atoms) vanish in the queue fold.
    assert smashed_m.stats().propagation_passes == 1
    assert plain_m.stats().propagation_passes == 13
    assert smashed_m.stats().deltas_compacted >= 12
