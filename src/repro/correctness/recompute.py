"""Ground-truth recomputation of view relations from source snapshots.

The oracle against which incremental maintenance is checked everywhere in
the test suite and benchmarks: evaluate every VDP node definition bottom-up
over the sources' *current* states.  If the mediator is quiescent (all
announcements collected and propagated), each materialized relation must
equal its recomputation exactly — multiplicities included.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.core.mediator import SquirrelMediator
from repro.core.vdp import VDP
from repro.relalg import Evaluator, Relation
from repro.sources.base import SourceDatabase

__all__ = [
    "recompute_all",
    "recompute",
    "assert_view_correct",
    "assert_materialized_correct",
]


def recompute_all(vdp: VDP, sources: Mapping[str, SourceDatabase]) -> Dict[str, Relation]:
    """Evaluate every node of ``vdp`` over current source snapshots."""
    catalog: Dict[str, Relation] = {}
    snapshots: Dict[str, Dict[str, Relation]] = {}
    for leaf in vdp.leaves():
        source_name = vdp.source_of_leaf(leaf)
        if source_name not in snapshots:
            snapshots[source_name] = sources[source_name].state()
        catalog[leaf] = snapshots[source_name][leaf]
    for name in vdp.topological_order():
        node = vdp.node(name)
        if node.is_leaf:
            continue
        evaluator = Evaluator(catalog)
        catalog[name] = evaluator.evaluate(node.definition, name)
    return catalog


def recompute(
    vdp: VDP, sources: Mapping[str, SourceDatabase], relation: str
) -> Relation:
    """Ground-truth value of one node (full width)."""
    return recompute_all(vdp, sources)[relation]


def assert_view_correct(
    mediator: SquirrelMediator, relation: Optional[str] = None
) -> None:
    """Assert every export (or one relation) matches its recomputation.

    The mediator must be quiescent; this pulls full current values through
    the QP (fetching virtual attributes as needed) and compares with the
    bottom-up recomputation over the live sources.

    When the VAP temp cache holds entries, each answer is additionally
    recomputed with the cache bypassed (cold construction, fresh polls) and
    the two mediator answers must be bit-identical — every cache-served
    result in the test suite is thereby cross-checked against the uncached
    query path, not just against ground truth.
    """
    truth = recompute_all(mediator.vdp, mediator.sources)
    targets = [relation] if relation else list(mediator.vdp.exports)
    for name in targets:
        current = mediator.query_relation(name)
        expected = truth[name]
        if current != expected:
            raise AssertionError(
                f"view {name!r} diverged from ground truth:\n"
                f"  mediator: {sorted(current.to_sorted_list())[:10]}\n"
                f"  truth:    {sorted(expected.to_sorted_list())[:10]}"
            )
        if mediator.vap.cache.entry_count():
            with mediator.vap.cache_bypassed():
                cold = mediator.query_relation(name)
            if current != cold:
                raise AssertionError(
                    f"view {name!r}: cache-served answer diverged from "
                    f"cold-cache recompute:\n"
                    f"  cached: {sorted(current.to_sorted_list())[:10]}\n"
                    f"  cold:   {sorted(cold.to_sorted_list())[:10]}"
                )


def assert_materialized_correct(mediator: SquirrelMediator) -> None:
    """Assert every *materialized repository* matches a from-scratch rebuild.

    Stronger than :func:`assert_view_correct` for chaos testing: exports can
    look right while an internal node's repository silently corrupted (a
    dropped or duplicated delta often cancels at the export but skews an
    intermediate bag's multiplicities).  This rebuilds a fresh
    :class:`~repro.core.LocalStore` from current source snapshots — the
    exact ``t_view_init`` procedure — and demands equality, projection and
    multiplicities included, for every storing node.
    """
    from repro.core.local_store import LocalStore

    leaf_values = {}
    snapshots = {}
    vdp = mediator.vdp
    for leaf in vdp.leaves():
        source_name = vdp.source_of_leaf(leaf)
        if source_name not in snapshots:
            snapshots[source_name] = mediator.sources[source_name].state()
        leaf_values[leaf] = snapshots[source_name][leaf]
    fresh = LocalStore(mediator.annotated)
    fresh.initialize(leaf_values)

    for name, expected in fresh.repos().items():
        current = mediator.store.repo(name)
        if current != expected:
            raise AssertionError(
                f"materialized node {name!r} diverged from from-scratch rebuild:\n"
                f"  mediator: {sorted(current.to_sorted_list())[:10]}\n"
                f"  rebuild:  {sorted(expected.to_sorted_list())[:10]}"
            )
