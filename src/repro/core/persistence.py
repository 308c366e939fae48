"""The local store at rest: the row codec, cursors, selective re-init.

A production mediator should not rebuild its materialized data from scratch
after a restart — Section 2 notes the whole point of materialization is to
avoid re-reading the sources.  The durability package
(:mod:`repro.durability`) saves the store as a checkpoint chain plus a
write-ahead log and restores it through one restart path
(:mod:`repro.durability.recovery`); this module holds the pieces of that
path that belong to the mediator itself:

* the repository row codec (:func:`encode_repo_rows` /
  :func:`decode_repo`) every checkpoint image is written and read with;
* :func:`source_cursor` — how far into a source's transaction log the
  materialized data is known to reflect, the position a restart catches
  up from;
* :func:`reinitialize_sources` — the degraded half of a restart, which
  rebuilds only the subtree of a source whose log was compacted past its
  cursor.

Cursor semantics rely on announcements reaching the queue with their
source-log cursors attached (the :class:`~repro.core.links.DirectLink`
path).  Deltas enqueued manually without a cursor advance the materialized
state but not the recorded cursor; checkpointing such a mediator and
recovering against the same logs would replay those transactions twice.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.core.mediator import SquirrelMediator
from repro.core.vdp import NodeKind
from repro.deltas import Delta
from repro.errors import MediatorError
from repro.relalg import BagRelation, Relation, RelationSchema, SetRelation
from repro.relalg.relation import rows_from_values

__all__ = [
    "reinitialize_sources",
    "encode_repo_rows",
    "decode_repo",
    "source_cursor",
]


# ----------------------------------------------------------------------
# The repository row codec (checkpoint images)
# ----------------------------------------------------------------------
def _row_key(row: Tuple[List, int]) -> List[Tuple[str, object]]:
    """The one canonical row order: each value tagged with its type's name,
    so ``None`` and mixed types order without comparing across types."""
    return [(type(v).__name__, v) for v in row[0]]


def encode_repo_rows(repo: Relation) -> Tuple[List[str], List[Tuple[List, int]]]:
    """One repository as ``(columns, [(values, multiplicity), ...])``.

    Values are listed in the stored schema's attribute order and rows in
    :func:`_row_key` order, so the encoding — and the bytes of every file
    written from it — depends on the repository's contents alone, never on
    its dict order (which follows the hash seed).
    """
    get = repo.schema.in_declared_order
    rows = sorted(((list(get(r._values)), n) for r, n in repo.items()), key=_row_key)
    return list(repo.schema.attribute_names), rows


def decode_repo(
    kind: NodeKind,
    stored_schema: RelationSchema,
    columns: Sequence[str],
    rows: Iterable[Tuple[Sequence, int]],
    node_name: str,
) -> Relation:
    """Rebuild one repository from its encoded form.

    Raises :class:`MediatorError` when the encoded column order disagrees
    with the current annotation's stored schema — silently zipping
    mismatched orders would scramble every row.
    """
    if list(stored_schema.attribute_names) != list(columns):
        raise MediatorError(
            f"the image of {node_name!r} has columns {list(columns)}, "
            f"current annotation stores {list(stored_schema.attribute_names)}"
        )
    rows = list(rows)
    built = rows_from_values(stored_schema, [values for values, _ in rows])
    if kind is NodeKind.SET:
        return SetRelation(stored_schema, built)
    counts: Counter = Counter()
    for r, (_, multiplicity) in zip(built, rows):
        counts[r] += multiplicity
    return BagRelation(stored_schema, counts)


def source_cursor(mediator: SquirrelMediator, source_name: str) -> int:
    """How far into one source's log the materialized data reflects.

    The queue tracks this exactly (seeded at initialization, advanced as
    cursor-carrying entries are reflected); a mediator that predates the
    cursor plumbing falls back to the source's live transaction count —
    correct only at quiescence, which is all such mediators supported.
    """
    reflected = mediator.queue.reflected_cursor(source_name)
    if reflected is not None:
        return reflected
    return mediator.sources[source_name].txn_count


# ----------------------------------------------------------------------
# Selective re-initialization
# ----------------------------------------------------------------------
def reinitialize_sources(
    mediator: SquirrelMediator, source_names: Sequence[str]
) -> Tuple[str, ...]:
    """Rebuild just the given sources' contributions from fresh snapshots.

    The degraded half of recovery: when a source's log can no longer
    replay up to the materialized state's cursor, only that source's leaf
    relations and the materialized nodes *above* them need recomputing —
    every other repository is untouched.  Returns the storing nodes whose
    repositories were replaced.

    Correctness hinges on which state each leaf contributes:

    * **stale sources** contribute a fresh snapshot, taken atomically with
      its cursor (pending announcements are discarded — the snapshot
      already reflects them — and queued entries are purged for the same
      reason);
    * **intact sources** must contribute the state the *materialized data
      currently reflects*, not their live state: their queued and pending
      announcements will still be delivered and propagated incrementally
      later, so the recompute applies the inverse of those in-flight nets
      to the live snapshot.  Using the live state directly would apply
      those transactions twice.
    """
    names = set(source_names)
    unknown = names - set(mediator.sources)
    if unknown:
        raise MediatorError(f"cannot reinitialize unknown sources {sorted(unknown)}")
    vdp = mediator.vdp

    stale_leaves: Set[str] = set()
    for name in names:
        stale_leaves.update(vdp.leaves_of_source(name))
    affected = frozenset(vdp.upward(stale_leaves))

    # Leaf values for the recompute, per the contribution rules above.
    leaf_values: Dict[str, Relation] = {}
    for source_name in sorted({vdp.source_of_leaf(l) for l in vdp.leaves()}):
        source = mediator.sources[source_name]
        if source_name in names:
            mediator.queue.discard_source(source_name)
            snapshot, cursor = source.initial_snapshot()
            mediator.queue.note_reflected_cursor(source_name, cursor)
        else:
            snapshot = source.state()
            in_flight = Delta()
            for delta in mediator.queue.pending_for_source(source_name):
                in_flight.absorb(delta)
            in_flight.absorb(source.pending_announcement())
            if not in_flight.is_empty():
                rewind = in_flight.inverse()
                snapshot = {
                    rel: rewind.applied(value, rel) for rel, value in snapshot.items()
                }
        for leaf in vdp.leaves_of_source(source_name):
            leaf_values[leaf] = snapshot[leaf]

    # Bottom-up transient evaluation (exactly view initialization), but
    # only the affected nodes' repositories are replaced.
    replaced: List[str] = []
    storing = mediator.annotated.storing_set()
    for node_name, full_value in mediator.store.evaluate_all(leaf_values):
        if node_name in affected and node_name in storing:
            mediator.store.reinitialize_node(node_name, full_value)
            replaced.append(node_name)
    # Cached temporaries may reflect the pre-reinit state of the affected
    # subtree; drop them wholesale (reinit is rare — precision is not
    # worth the bookkeeping).
    mediator.vap.clear_cache()
    if mediator.tracer.enabled:
        mediator.tracer.event(
            "source_reinit",
            sources=sorted(names),
            nodes=sorted(replaced),
        )
    return tuple(replaced)
