"""The source-database protocol.

Section 4 classifies sources by what the mediator needs from them:

* **materialized-contributors** must "actively send relevant net updates" —
  they need the announcement half of this protocol;
* **hybrid-contributors** need both halves (announcements and queries);
* **virtual-contributors** only need to answer queries — "its role can be
  played by all kinds of DBMS, including legacy systems that do not have
  active database capabilities".

:class:`SourceDatabase` captures both halves.  Transactions are applied as
:class:`~repro.deltas.SetDelta` values committed atomically;
``take_announcement`` returns the *net* delta since the last announcement,
smashed into "a single undividable message" exactly as the paper requires.
A source can be asked to *prefilter* announcements (the source-side
optimization mentioned at the end of Section 6.2).
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.deltas import SetDelta
from repro.deltas.filtering import LeafParentFilter
from repro.errors import SourceError
from repro.relalg import Expression, Relation, RelationSchema, Row, SetRelation

__all__ = ["SourceDatabase"]


class SourceDatabase:
    """Abstract autonomous source database.

    The transaction log, announcement machinery, and commit hooks live
    here; a concrete store supplies the *storage protocol*:

    * ``_snapshot()`` — a consistent copy of every relation (view
      initialization and snapshot polls; the only O(|db|) operation);
    * ``_contains(relation, row)`` — one membership probe, answered where
      the data lives (a set lookup, a covering-index search);
    * ``_apply(delta)`` — atomically write one validated delta;
    * ``query(expr)`` — answer an algebra expression in one transaction.

    A commit is therefore O(|delta|) index probes plus O(|delta|) writes and
    O(|delta|) announcement bookkeeping — nothing in it grows with the
    size of the source, which is what lets Theorem 7.2 charge the mediator
    only announcement, communication, holding and processing delay.
    """

    #: True when storage may only be touched from the thread that created
    #: the source (a SQLite connection); links then keep the source out of
    #: the VAP's worker-thread poll fan-out.
    thread_affine = False

    def __init__(self, name: str, schemas: Sequence[RelationSchema]):
        self.name = name
        self.schemas: Dict[str, RelationSchema] = {s.name: s for s in schemas}
        if len(self.schemas) != len(schemas):
            raise SourceError(f"duplicate relation names in source {name!r}")
        self.txn_count = 0
        self.query_count = 0
        self._pending: SetDelta = SetDelta()
        self._log: List[Tuple[int, SetDelta]] = []
        self._on_commit: List[Callable[["SourceDatabase", SetDelta], None]] = []
        self._prefilters: List[LeafParentFilter] = []
        # Commits, announcement takes, and snapshots may now be driven from
        # different threads (the VAP polls independent sources concurrently);
        # reentrant because commit hooks can read back through public methods.
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Abstract storage operations
    # ------------------------------------------------------------------
    def _snapshot(self) -> Dict[str, SetRelation]:
        """A consistent copy of every relation."""
        raise NotImplementedError

    def _apply(self, delta: SetDelta) -> None:
        """Atomically apply a validated transaction delta to storage."""
        raise NotImplementedError

    def _contains(self, relation: str, row: Row) -> bool:
        """Whether ``row`` is currently stored in ``relation``.

        The per-row primitive commit validation is built on: one probe per
        delta atom, so validating a commit costs O(|delta|) lookups at any
        source size.  There is deliberately no snapshot-based default — a
        store must answer from its own index.
        """
        raise NotImplementedError

    def query(self, expr: Expression, name: str = "answer") -> Relation:
        """Answer a query over this source's relations (one transaction)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, SetRelation]:
        """A consistent snapshot of the whole source (copies)."""
        with self._lock:
            return self._snapshot()

    def poll_transaction(self) -> Tuple[Optional[SetDelta], Dict[str, SetRelation]]:
        """Atomically take the pending announcement and snapshot the source.

        This is the read half of one poll round as a single source
        transaction: no commit can slip between the announcement take and
        the snapshot, so the returned snapshot reflects *exactly* the
        announced state — the ordering property the Eager Compensation
        Algorithm relies on, preserved even with links polling from worker
        threads.
        """
        with self._lock:
            return self.take_announcement(), self._snapshot()

    def poll_transaction_versioned(
        self,
    ) -> Tuple[Optional[SetDelta], int, Dict[str, SetRelation]]:
        """:meth:`poll_transaction` plus the cursor the answer reflects.

        The cursor is this source's transaction count at take time — the
        announced state covers exactly transactions ``1..cursor``, which is
        what the durability layer records so a restart knows where to
        resume this source's log.
        """
        with self._lock:
            return self.take_announcement(), self.txn_count, self._snapshot()

    def initial_snapshot(self) -> Tuple[Dict[str, SetRelation], int]:
        """One atomic (snapshot, cursor) pair for view initialization.

        Discards the pending announcement (the snapshot already reflects
        it — delivering it afterwards would double-apply) and returns the
        transaction cursor the snapshot corresponds to, all under one
        source transaction so no commit can slip between the three reads.
        """
        with self._lock:
            self.take_announcement()
            return self._snapshot(), self.txn_count

    def relation(self, name: str) -> SetRelation:
        """A snapshot copy of one relation."""
        snap = self._snapshot()
        try:
            return snap[name]
        except KeyError as exc:
            raise SourceError(f"source {self.name!r} has no relation {name!r}") from exc

    def schema(self, name: str) -> RelationSchema:
        """The schema of one relation."""
        try:
            return self.schemas[name]
        except KeyError as exc:
            raise SourceError(f"source {self.name!r} has no relation {name!r}") from exc

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def execute(self, delta: SetDelta) -> int:
        """Commit a transaction; returns the transaction sequence number.

        The delta must mention only this source's relations, and every atom
        must be non-redundant (insert absent rows, delete present rows) —
        the paper's deltas are never redundant, and enforcing that here
        catches workload bugs early.
        """
        with self._lock:
            self._validate(delta)
            self._apply(delta)
            self.txn_count += 1
            committed = delta.copy()
            self._log.append((self.txn_count, committed))
            self._pending.net_fold(committed)
            for hook in self._on_commit:
                hook(self, committed)
            return self.txn_count

    def _validate(self, delta: SetDelta) -> None:
        for rel_name in delta.relations():
            if rel_name not in self.schemas:
                raise SourceError(f"source {self.name!r} has no relation {rel_name!r}")
            for r, sign in delta.atoms_for(rel_name):
                present = self._contains(rel_name, r)
                if sign > 0 and present:
                    raise SourceError(
                        f"redundant insert into {self.name}.{rel_name}: {dict(r)}"
                    )
                if sign < 0 and not present:
                    raise SourceError(
                        f"redundant delete from {self.name}.{rel_name}: {dict(r)}"
                    )

    def insert(self, relation: str, **values) -> int:
        """Single-row insert transaction."""
        delta = SetDelta()
        delta.insert(relation, Row(values))
        return self.execute(delta)

    def delete(self, relation: str, **values) -> int:
        """Single-row delete transaction."""
        delta = SetDelta()
        delta.delete(relation, Row(values))
        return self.execute(delta)

    def update(self, relation: str, old: Dict, new: Dict) -> int:
        """Single-row replace transaction (delete old, insert new)."""
        delta = SetDelta()
        delta.delete(relation, Row(old))
        delta.insert(relation, Row(new))
        return self.execute(delta)

    # ------------------------------------------------------------------
    # Announcements (the "active" capability)
    # ------------------------------------------------------------------
    def on_commit(self, hook: Callable[["SourceDatabase", SetDelta], None]) -> None:
        """Register a hook invoked after every commit (observers, drivers)."""
        self._on_commit.append(hook)

    def set_prefilters(self, filters: Sequence[LeafParentFilter]) -> None:
        """Install source-side announcement filters (Section 6.2 optimization)."""
        self._prefilters = list(filters)

    def has_pending_announcement(self) -> bool:
        """True when commits have happened since the last announcement."""
        return not self._pending.is_empty()

    def take_announcement(self) -> Optional[SetDelta]:
        """The net delta since the last announcement, as one message.

        Resets the pending accumulator.  Returns ``None`` when there is
        nothing to announce (also when prefiltering drops everything).
        """
        with self._lock:
            if self._pending.is_empty():
                return None
            announcement = self._pending
            self._pending = SetDelta()
            if self._prefilters:
                announcement = self._prefilter(announcement)
            return announcement if not announcement.is_empty() else None

    def take_announcement_versioned(self) -> Tuple[Optional[SetDelta], int]:
        """:meth:`take_announcement` plus the cursor the message covers.

        The cursor is the source's transaction count at take time: the
        returned net delta (possibly ``None``) brings a reader that was
        current through the *previous* announcement up to exactly
        transaction ``cursor``.  Durability-aware collectors thread this
        through the update queue so the write-ahead log can record, per
        committed mediator transaction, how far into each source's log the
        materialized state has advanced.
        """
        with self._lock:
            return self.take_announcement(), self.txn_count

    def pending_announcement(self) -> SetDelta:
        """A copy of the unannounced accumulator (peek — nothing is reset).

        Selective re-initialization uses this to compensate a current
        snapshot back to the last-announced state without consuming the
        announcement.
        """
        with self._lock:
            return self._pending.copy()

    def _prefilter(self, delta: SetDelta) -> SetDelta:
        """Keep each atom that is relevant to at least one leaf-parent.

        An atom survives when its relation has no installed filter at all,
        or when it passes the selection condition of *some* filter over that
        relation — dropping it would starve a node that needs it.
        """
        filtered_relations = {f.source_relation for f in self._prefilters}
        out = SetDelta()
        for rel, r, sign in delta.atoms():
            relevant = rel not in filtered_relations or any(
                f.predicate.compiled()(r)
                for f in self._prefilters
                if f.source_relation == rel
            )
            if relevant:
                if sign > 0:
                    out.insert(rel, r)
                else:
                    out.delete(rel, r)
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def log(self) -> List[Tuple[int, SetDelta]]:
        """The committed transaction log: ``(txn_seq, delta)`` pairs."""
        return list(self._log)

    def compact_log(self, through_seq: int) -> int:
        """Drop log entries with ``seq <= through_seq``; returns how many.

        Autonomous sources reclaim log space on their own schedule — the
        mediator cannot stop them.  A mediator whose saved cursor falls
        below the compacted floor can no longer catch up by replay and must
        selectively re-initialize that source's subtree (see
        :class:`~repro.errors.SnapshotStaleError`).
        """
        with self._lock:
            before = len(self._log)
            self._log = [(seq, delta) for seq, delta in self._log if seq > through_seq]
            return before - len(self._log)

    def log_reaches(self, cursor: int) -> bool:
        """True when every transaction in ``(cursor, txn_count]`` is logged.

        This is the replayability test: a reader current through ``cursor``
        can catch up iff no entry it needs has been compacted away.
        """
        with self._lock:
            needed = set(range(cursor + 1, self.txn_count + 1))
            present = {seq for seq, _ in self._log}
            return needed <= present

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} relations={sorted(self.schemas)}>"
