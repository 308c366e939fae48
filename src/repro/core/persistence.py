"""Persistence and warm restart for the mediator's local store.

A production mediator should not rebuild its materialized data from scratch
after a restart — Section 2 notes the whole point of materialization is to
avoid re-reading the sources.  This module adds a snapshot/restore protocol
on top of SQLite:

* :func:`save_mediator` — persist every repository plus a *cursor* per
  source (how far into the source's transaction log the materialized data
  is known to reflect) into one SQLite file.  The mediator need **not** be
  quiescent: queued-but-unreflected announcements are simply not part of
  the snapshot, and the saved cursors point at exactly the log positions
  the stored repositories correspond to — restore replays everything past
  them.
* :func:`restore_mediator` — rebuild a mediator from the snapshot WITHOUT
  re-reading source relations wholesale, then *catch up*: each announcing
  source replays its transaction log past the saved cursor, the replayed
  net delta is enqueued, and one update transaction brings the view
  current.  Only the updates committed while the mediator was down are
  processed.  A source whose log has been compacted past the saved cursor
  raises :class:`~repro.errors.SnapshotStaleError` (carrying the exact
  per-source gap) — or, with ``on_stale="reinit"``, falls back to
  *selective re-initialization* of just that source's contributions
  (:func:`reinitialize_sources`).

Rows are stored as JSON arrays aligned with the stored schema's attribute
order, with a multiplicity column (always 1 for set nodes).  The row codec
(:func:`encode_repo_rows` / :func:`decode_repo`) is shared with the
checkpoint half of :mod:`repro.durability`, so a snapshot and a checkpoint
agree byte-for-byte on what a repository looks like at rest.

Cursor semantics rely on announcements reaching the queue with their
source-log cursors attached (the :class:`~repro.core.links.DirectLink`
path).  Deltas enqueued manually without a cursor advance the materialized
state but not the recorded cursor; saving such a mediator and restoring
against the same logs would replay those transactions twice.
"""

from __future__ import annotations

import json
import sqlite3
from collections import Counter
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple

from repro.core.mediator import SquirrelMediator
from repro.core.vdp import AnnotatedVDP, NodeKind
from repro.deltas import Delta
from repro.errors import MediatorError, OrphanStateError, SnapshotStaleError
from repro.relalg import BagRelation, Relation, RelationSchema, SetRelation
from repro.relalg.relation import rows_from_values

__all__ = [
    "save_mediator",
    "restore_mediator",
    "reinitialize_sources",
    "encode_repo_rows",
    "decode_repo",
    "source_cursor",
]

_META_DDL = """
CREATE TABLE IF NOT EXISTS squirrel_meta (
    kind TEXT NOT NULL,
    name TEXT NOT NULL,
    payload TEXT NOT NULL,
    PRIMARY KEY (kind, name)
)
"""
_ROWS_DDL = """
CREATE TABLE IF NOT EXISTS squirrel_rows (
    node TEXT NOT NULL,
    row_json TEXT NOT NULL,
    multiplicity INTEGER NOT NULL
)
"""


# ----------------------------------------------------------------------
# The shared repository row codec (snapshots and checkpoints)
# ----------------------------------------------------------------------
def encode_repo_rows(repo: Relation) -> Tuple[List[str], List[Tuple[List, int]]]:
    """One repository as ``(columns, [(values, multiplicity), ...])``.

    Values are listed in the stored schema's attribute order, so the pair
    round-trips through JSON without depending on dict ordering.
    """
    get = repo.schema.in_declared_order
    rows = [(list(get(r._values)), n) for r, n in repo.items()]
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
            f"snapshot of {node_name!r} has columns {list(columns)}, "
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
# Snapshot
# ----------------------------------------------------------------------
def save_mediator(mediator: SquirrelMediator, path: str) -> int:
    """Snapshot a mediator's local store; returns rows written.

    The mediator may be mid-stream: a non-empty queue or unannounced
    source updates are fine.  The snapshot stores the repositories *as
    they are* plus the per-source cursors they reflect; everything past a
    cursor is recovered from the source's log at restore time.
    """
    if not mediator.initialized:
        raise MediatorError("cannot save an uninitialized mediator")

    conn = sqlite3.connect(path)
    try:
        cur = conn.cursor()
        cur.execute(_META_DDL)
        cur.execute(_ROWS_DDL)
        cur.execute("DELETE FROM squirrel_meta")
        cur.execute("DELETE FROM squirrel_rows")

        for source_name in mediator.sources:
            cur.execute(
                "INSERT INTO squirrel_meta VALUES ('cursor', ?, ?)",
                (source_name, str(source_cursor(mediator, source_name))),
            )

        written = 0
        for node_name in mediator.annotated.nodes_with_storage():
            columns, rows = encode_repo_rows(mediator.store.repo(node_name))
            cur.execute(
                "INSERT INTO squirrel_meta VALUES ('node', ?, ?)",
                (node_name, json.dumps(columns)),
            )
            for values, n in rows:
                cur.execute(
                    "INSERT INTO squirrel_rows VALUES (?, ?, ?)",
                    (node_name, json.dumps(values), n),
                )
                written += 1
        conn.commit()
        return written
    finally:
        conn.close()


def _load_snapshot(path: str):
    conn = sqlite3.connect(path)
    try:
        cur = conn.cursor()
        cursors: Dict[str, int] = {}
        node_columns: Dict[str, List[str]] = {}
        for kind, name, payload in cur.execute("SELECT kind, name, payload FROM squirrel_meta"):
            if kind == "cursor":
                cursors[name] = int(payload)
            elif kind == "node":
                node_columns[name] = json.loads(payload)
        rows: Dict[str, List] = {name: [] for name in node_columns}
        for node, row_json, multiplicity in cur.execute(
            "SELECT node, row_json, multiplicity FROM squirrel_rows"
        ):
            rows[node].append((json.loads(row_json), multiplicity))
        return cursors, node_columns, rows
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Restore
# ----------------------------------------------------------------------
def restore_mediator(
    annotated: AnnotatedVDP,
    sources: Mapping[str, "SourceDatabase"],
    path: str,
    eca_enabled: bool = True,
    key_based_enabled: bool = True,
    on_stale: str = "raise",
    on_orphan: str = "drop",
) -> SquirrelMediator:
    """Rebuild a mediator from a snapshot and catch up from source logs.

    Sources must be the same databases (or replicas thereof) whose
    transaction logs extend the saved cursors; updates committed after the
    snapshot are replayed as one net delta per source and propagated
    incrementally.

    ``on_stale`` decides what happens when a source's log no longer
    reaches back to its saved cursor (the source compacted autonomously):

    * ``"raise"`` (default) — raise :class:`SnapshotStaleError` carrying
      every stale source's exact cursor gap;
    * ``"reinit"`` — restore everything else from the snapshot, then
      selectively re-initialize just the stale sources' leaf relations and
      the materialized subtree above them (:func:`reinitialize_sources`)
      from fresh snapshots.  Intact sources still catch up incrementally.

    ``on_orphan`` decides what happens when the snapshot holds *more* than
    the current federation: nodes imaged for a source that has since been
    detached (or cursors for it).  ``"drop"`` (default) discards the
    orphan state — a detach is an intentional shrink, and the surviving
    repositories restore normally; ``"raise"`` raises
    :class:`~repro.errors.OrphanStateError` naming the orphan nodes and
    cursors.  A snapshot *missing* nodes the annotation stores is always
    an error — those repositories cannot be conjured.
    """
    if on_stale not in ("raise", "reinit"):
        raise MediatorError(f"on_stale must be 'raise' or 'reinit', got {on_stale!r}")
    if on_orphan not in ("drop", "raise"):
        raise MediatorError(f"on_orphan must be 'drop' or 'raise', got {on_orphan!r}")
    cursors, node_columns, rows = _load_snapshot(path)
    mediator = SquirrelMediator(
        annotated,
        sources,
        eca_enabled=eca_enabled,
        key_based_enabled=key_based_enabled,
    )

    expected = annotated.storing_set()
    present = set(node_columns)
    missing = expected - present
    if missing:
        raise MediatorError(
            f"snapshot covers nodes {sorted(present)}, annotation stores {sorted(expected)}"
        )
    orphan_nodes = present - expected
    orphan_cursors = set(cursors) - set(mediator.sources)
    if orphan_nodes or orphan_cursors:
        if on_orphan == "raise":
            raise OrphanStateError(orphan_nodes, orphan_cursors)
        for node_name in orphan_nodes:
            node_columns.pop(node_name)
            rows.pop(node_name, None)
        for source_name in orphan_cursors:
            cursors.pop(source_name)

    # Populate repositories straight from the snapshot.
    for node_name, columns in node_columns.items():
        node = annotated.vdp.node(node_name)
        mediator.store.install_repo(
            node_name,
            decode_repo(
                node.kind,
                mediator.store.stored_schema(node_name),
                columns,
                rows[node_name],
                node_name,
            ),
        )
    mediator.store._initialized = True
    mediator.store._build_declared_indexes()
    mediator._initialized = True
    for source_name, cursor in cursors.items():
        if source_name in mediator.sources:
            mediator.queue.note_reflected_cursor(source_name, cursor)

    # Catch up: replay each announcing source's log past the cursor.
    # First sweep for staleness so the error (or fallback) covers *every*
    # gap at once instead of failing on the first.
    stale: Dict[str, Tuple[int, int]] = {}
    for source_name, kind in sorted(mediator.contributor_kinds.items()):
        if not kind.announces:
            continue
        source = mediator.sources[source_name]
        cursor = cursors.get(source_name)
        if cursor is None:
            raise MediatorError(f"snapshot lacks a cursor for source {source_name!r}")
        if not source.log_reaches(cursor):
            logged = [seq for seq, _ in source.log()]
            floor = min(logged) if logged else source.txn_count + 1
            stale[source_name] = (cursor, floor)
    if stale and on_stale == "raise":
        raise SnapshotStaleError(stale)

    for source_name, kind in sorted(mediator.contributor_kinds.items()):
        if not kind.announces or source_name in stale:
            continue
        source = mediator.sources[source_name]
        cursor = cursors[source_name]
        # The pending accumulator describes transactions the log replay is
        # about to cover; take it atomically with the cursor so nothing
        # committed in between is delivered twice or lost.
        _, now_cursor = source.take_announcement_versioned()
        missed = [delta for seq, delta in source.log() if cursor < seq <= now_cursor]
        # Insert-then-delete across missed transactions nets to nothing,
        # exactly as in a source's own announcement accumulator.
        net = Delta()
        for delta in missed:
            net.absorb(delta)
        if not net.is_empty():
            mediator.enqueue_update(source_name, net, cursor=now_cursor)
        else:
            mediator.queue.note_reflected_cursor(source_name, now_cursor)
    mediator.run_update_transaction()

    if stale:
        for name in sorted(stale):
            mediator.begin_resync(name)
        try:
            reinitialize_sources(mediator, sorted(stale))
        finally:
            for name in sorted(stale):
                mediator.end_resync(name)
    return mediator


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
